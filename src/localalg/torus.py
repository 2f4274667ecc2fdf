"""Trigonometric-polynomial function spaces on flat tori over an algebra.

A torus model for A^m uses N = n*m angular coordinates of period 2*pi,
ordered real parts first: coordinate b*m + j carries basis component b of
slot j. The first m coordinates are transversal; fixing them selects a leaf
of the canonical foliation (all leaves are closed sub-tori here).

Differentiability over A is the generalized Cauchy-Riemann system of
Scheffers and Ketchum: every Jacobian block must commute with every basis
multiplication operator. On the torus these are linear PDEs with constant
coefficients in the angles, so the Fourier modes decouple. On the mode of
frequency k, d/d(theta_a) multiplies by k_a and rotates the (cos, sin)
coefficient pair, and the constraints reduce to a small real matrix S(k),
the symbol: a coefficient vector solves the system exactly when S(k)
annihilates its cos coefficients and its sin coefficients on every mode.

For a function the symbol is C (k tensor I_n), where C (``commutator_rows``)
holds the A-linearity rows on (coordinate, component) values: a function is
A-differentiable exactly when its differential is A-linear. The 1-forms of
``forms`` solve on a frame of the kernel of C, with only closedness rows.

The real part is critical on the leaf minimizing the e1 leaf-average
(Molino, Riemannian foliations, 1988). The check places that leaf on the
grid^m transversal lattice, in chunks of at most LATTICE_BUDGET values, and
bounds the real part's gradient there and its variation in closed form from
its Fourier coefficients (``_min_leaf``). Only a live solution reaches the
lattice: a real part with no nonzero (cos, sin) coefficient (NaN and inf
count) is flat, and both bounds are exactly 0 on it. Every actual solution
is flat, so GRAD_MAX and G_VARIATION are 0 by construction; the check has
content only on injected non-solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import StandardBasisInfo, StructureConstants
from .errors import SizeCapExceeded
from .report import Report

DEFAULT_CAP = 20000
DEFAULT_NULL_TOL = 1e-8
LATTICE_BUDGET = 2**22  # complex lattice values per chunk of the min-leaf check
TIE_RTOL = 1e-12  # relative to the l1 norm of the averaged coefficients


@dataclass(frozen=True)
class TrigSpace:
    """Real trigonometric polynomials of bounded degree on the N-torus.

    Basis: index 0 is the constant; pair p contributes cos at index 1+2p and
    sin at index 2+2p. One representative per +-k pair (first nonzero entry
    positive), enumerated in lexicographic order over the frequency box.
    """

    ncoords: int
    degree: int
    freqs: np.ndarray  # (npairs, ncoords) integer representatives

    @classmethod
    def build(cls, ncoords: int, degree: int) -> "TrigSpace":
        # the box is lexicographic and symmetric about its zero vector, so the
        # entries after it are the ones whose first nonzero entry is positive
        K = max(2 * degree + 1, 0)
        box = np.indices((K,) * ncoords, dtype=np.int64).reshape(ncoords, K**ncoords).T
        return cls(ncoords, degree, np.ascontiguousarray(box[(K**ncoords + 1) // 2:] - degree))

    @property
    def npairs(self) -> int:
        return self.freqs.shape[0]

    @property
    def size(self) -> int:
        """Number of real basis functions, (2d+1)^N."""
        return 1 + 2 * self.npairs

    def mode_freqs(self) -> np.ndarray:
        """Frequency of every mode: the constant first, then each pair's."""
        return np.vstack([np.zeros((1, self.ncoords), dtype=np.int64), self.freqs])

    def freq_of(self, t: int) -> tuple[int, ...]:
        if t == 0:
            return (0,) * self.ncoords
        return tuple(int(v) for v in self.freqs[(t - 1) // 2])

    def transversal_mask(self, m: int) -> np.ndarray:
        """True where a basis function only involves the first m coordinates."""
        mask = np.ones(self.size, dtype=bool)
        mask[1::2] = mask[2::2] = np.all(self.freqs[:, m:] == 0, axis=1)
        return mask

    def values(self, points: np.ndarray) -> np.ndarray:
        """Design matrix of all basis functions at the given points (P, N)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((points.shape[0], self.size))
        out[:, 0] = 1.0
        if self.npairs:
            phases = points @ self.freqs.T.astype(float)
            np.cos(phases, out=out[:, 1::2])
            np.sin(phases, out=out[:, 2::2])
        return out


@dataclass
class TorusConfig:
    """A torus over the algebra: standard-basis algebra, its info, and m."""

    algebra: StructureConstants
    info: StandardBasisInfo
    m: int

    def __post_init__(self):
        self.mults = self.algebra.basis_mult_matrices()

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def ncoords(self) -> int:
        return self.n * self.m

    def coord(self, slot: int, comp: int) -> int:
        """Torus coordinate index of component ``comp`` of slot ``slot``."""
        return comp * self.m + slot

    def trig_space(self, degree: int) -> TrigSpace:
        return TrigSpace.build(self.ncoords, degree)

    def basic_socle_dim(self, degree: int) -> int:
        """s ((2d+1)^m - 1), d = max(degree, 0): the socle elements times the
        non-constant trig functions of the m transversal coordinates, the part
        of the theorem's solution counts beyond the constants."""
        return self.info.socle_dim * ((2 * max(degree, 0) + 1) ** self.m - 1)


# -- constraint systems -----------------------------------------------------------


@dataclass
class ConstraintSystem:
    """Linear constraints on trig coefficients of A-valued unknowns, by symbol.

    Columns of the full system are indexed by (unknown, trig index), rows by
    (mode, symbol row, cos or sin). ``symbols[p]`` is the symbol S(k) of
    mode p: mode 0 is the constant (trig index 0) and mode p >= 1 is pair
    p - 1 of ``trig`` (cos at trig index 2p - 1, sin at 2p). The full matrix
    is block diagonal over modes. Up to an orthogonal change of its rows, the
    block of a pair applies S(k) to the cos and to the sin coefficients, so it
    has the singular values of S(k), each taken twice. Unknowns take values
    only on the orthonormal ``frame`` F (the identity for functions): the
    symbols act on x = F^T u.
    """

    trig: TrigSpace
    symbols: np.ndarray  # (modes, rows, symbol columns)
    frame: np.ndarray  # (unknowns, symbol columns)

    @property
    def nrows(self) -> int:
        return self.symbols.shape[1] * self.trig.size

    @property
    def ncols(self) -> int:
        return self.frame.shape[0] * self.trig.size

    def residual_inf(self, u: np.ndarray) -> float:
        """Largest constraint violation of a coefficient vector or (S, ncols)
        stack: the symbols on x = F^T u, and the part u - F x off the frame.
        Only the (solution, trig index) columns where u holds a value (NaN and
        inf count) are read, each with its mode's symbol (trig index b is in
        mode (b + 1) // 2). A zero column adds exactly 0 to both parts, so
        this is exact for any u; an empty stack gives 0."""
        U = np.atleast_2d(np.asarray(u, dtype=float))
        U = U.reshape(len(U), self.frame.shape[0], self.trig.size)
        s, b = np.nonzero(U.any(axis=1))
        Ug = U[s, :, b]  # (columns, unknowns)
        X = Ug @ self.frame
        off = np.abs(Ug - X @ self.frame.T).max(initial=0.0)
        sym = np.abs(np.take(self.symbols, (b + 1) // 2, axis=0) @ X[:, :, None]).max(initial=0.0)
        return float(np.maximum(sym, off))


def _size(factor: int, base: int, exp: int, limit: int, what: str) -> int:
    """The count factor * base**exp, or SizeCapExceeded naming it in ``what``
    when it exceeds ``limit``. A count whose logarithm is more than 64 bits
    past the limit, or that is too long to print, is named "more than 2^bits":
    no huge integer is built or formatted."""
    bound = max(limit, 1).bit_length() + 64
    if math.log2(factor) > bound or base > 1 and exp > bound / math.log2(base):
        raise SizeCapExceeded(what.format(f"more than 2^{bound}"))
    count = factor * base**exp
    if count > limit:  # an int under 14000 bits prints in under 4300 digits
        bits = count.bit_length()
        raise SizeCapExceeded(what.format(count if bits < 14000 else f"more than 2^{bits - 1}"))
    return count


def capped_trig_space(cfg: TorusConfig, degree: int, unknowns: int,
                      cap: int) -> TrigSpace:
    """The degree-``degree`` trig space, unless the system would have more than
    ``cap`` columns (``unknowns`` times (2d+1)^N).

    The count is arithmetic, so an oversized request fails with
    SizeCapExceeded before any frequency is enumerated. A negative degree
    leaves only the constant, as in ``TrigSpace.build``.
    """
    _size(unknowns, 2 * max(degree, 0) + 1, cfg.ncoords, cap,
          f"{{}} columns exceed the cap {cap}")
    return cfg.trig_space(degree)


def commutator_rows(cfg: TorusConfig) -> np.ndarray:
    """A-linearity rows on (coordinate, component) values, (m*(n-1)*n*n, N*n).

    For slot j and radical basis element e_a, the n x n matrix W with
    W[i, c] the value at (coordinate coord(j, c), component i) must commute
    with L_a. On W flattened row-major, W L_a - L_a W is
    kron(I, L_a^T) - kron(L_a, I). Rows are ordered (j, a, i, b) and the
    column of (coordinate, component) is coordinate * n + component.
    """
    n, m = cfg.n, cfg.m
    eye = np.eye(n)
    comm = np.stack([np.kron(eye, L.T) - np.kron(L, eye) for L in cfg.mults[1:]])
    comp = np.arange(n)
    rows = np.zeros((m, n - 1, n * n, cfg.ncoords * n))
    for j in range(m):
        cols = (cfg.coord(j, comp)[None, :] * n + comp[:, None]).reshape(-1)
        rows[j][..., cols] = comm
    return rows.reshape(-1, cfg.ncoords * n)


def assemble_function_constraints(cfg: TorusConfig, degree: int,
                                  cap: int = DEFAULT_CAP) -> ConstraintSystem:
    """Linear system whose kernel is the space of A-differentiable functions.

    Unknowns: the n components of one A-valued function. The symbol is
    C (k tensor I_n): the differential of mode k, k_a g^i at (coordinate a,
    component i), fed to the A-linearity rows C of ``commutator_rows``.
    """
    trig = capped_trig_space(cfg, degree, cfg.n, cap)
    k_tensor_id = np.kron(trig.mode_freqs()[:, :, None], np.eye(cfg.n))
    return ConstraintSystem(trig, commutator_rows(cfg) @ k_tensor_id, np.eye(cfg.n))


def solve_nullspace(system: ConstraintSystem,
                    tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis from one batched SVD of the symbols that
    ``linalg._full_rank_modes`` does not prove full rank. The right singular
    vectors of a mode that the rank rule of ``linalg._svd_rank`` does not
    count over the whole stack are null, so a vanishing symbol is null in
    every direction. A null vector v gives one row on the constant columns
    for mode 0, and two rows for a pair: v (F v on the ``frame`` F) on its
    cos columns, then on its sin columns. So every row is nonzero on exactly
    one trig index, and the cos and sin rows of a pair carry the same vector;
    the cohomology of ``forms`` reads each row as that index and vector, and
    ranks and fits one index at a time. Rows are mode-major and, within a
    mode, by ascending singular value; each row's largest entry is positive.
    """
    modes, nrows, nsym = system.symbols.shape
    svd = np.flatnonzero(~linalg._full_rank_modes(system.symbols, tol))
    # vh must be square; u is needed in full only when a symbol is wide
    rank, vh = linalg._svd_rank(system.symbols[svd], tol, full_matrices=nrows < nsym)
    # the null vectors, mode-major by ascending singular value
    null = np.arange(nsym) < (nsym - rank)[:, None]
    vecs = linalg.canonical_signs((vh @ system.frame.T)[:, ::-1][null])
    # cos and sin trig index of each vector's mode; mode 0 has no cos row
    cos_sin = 2 * svd[np.nonzero(null)[0]][:, None] - np.array([1, 0])
    vec, t = np.nonzero(cos_sin >= 0)
    out = np.zeros((len(vec), vecs.shape[1], system.trig.size))
    out[np.arange(len(vec)), :, cos_sin[vec, t]] = vecs[vec]
    return out.reshape(len(vec), system.ncols)


# -- verification suites -----------------------------------------------------------


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit as np.linalg.norm of that row."""
    X = np.ascontiguousarray(X)
    return np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0, 0]


def verify_constancy(solutions: np.ndarray, cfg: TorusConfig,
                     trig: TrigSpace, tol: float = 1e-8) -> Report:
    """Check that real parts are constant and e1-components are basic.

    (a) the real-part component of every solution has zero coefficient on
    every non-constant basis function; (b) the e1-component is supported on
    transversal-only frequencies (hence constant on every leaf).
    """
    U = np.atleast_2d(solutions).reshape(-1, cfg.n, trig.size)
    nonconst = np.abs(U[:, 0, 1:])
    mass = _row_norms(nonconst)
    e1 = U[:, 1, ~trig.transversal_mask(cfg.m)] if cfg.n > 1 else np.zeros((len(U), 0))
    worst_real = float(mass.max(initial=0.0))
    worst_e1 = float(_row_norms(e1).max(initial=0.0))
    rep = Report()
    rep.add("real_part_constant", worst_real <= tol, worst_real)
    rep.add("e1_component_basic", worst_e1 <= tol, worst_e1)
    rep.put("NULLSPACE_DIM", len(U))
    rep.put("REAL_PART_NONCONST_MASS", worst_real)
    rep.put("E1_NONBASIC_MASS", worst_e1)
    for v, q in enumerate(np.flatnonzero(mass > tol)[:8]):
        freq = trig.freq_of(1 + int(np.argmax(nonconst[q])))
        rep.put(f"REAL_PART_VIOLATION[{v}]", f"solution={q} freq={freq}")
    return rep


def verify_socle_decomposition(solutions: np.ndarray, cfg: TorusConfig,
                               trig: TrigSpace,
                               tol: float = 1e-8) -> Report:
    """Check each solution is a constant plus socle components times basic
    functions: all non-constant coefficient mass must sit in socle
    components with transversal-only frequencies."""
    socle = list(cfg.info.socle)
    allowed = np.zeros((cfg.n, trig.size), dtype=bool)
    allowed[:, 0] = True
    allowed[socle] = trig.transversal_mask(cfg.m)
    U = np.atleast_2d(solutions).reshape(-1, cfg.n, trig.size)[:, ~allowed]
    worst = float(_row_norms(U).max(initial=0.0))
    rep = Report()
    rep.add("socle_decomposition", worst <= tol, worst)
    rep.put("SOCLE_DIM", len(socle))
    rep.put("SOCLE_RESIDUAL_MASS", worst)
    return rep


def lattice_chunks(cfg: TorusConfig, grid: int) -> int:
    """Live solutions per chunk of ``_min_leaf``'s leaf search, one grid^m
    lattice row each; SizeCapExceeded when a row exceeds LATTICE_BUDGET."""
    what = f"{{}} lattice values per solution exceed the budget {LATTICE_BUDGET}"
    return LATTICE_BUDGET // _size(1, grid, cfg.m, LATTICE_BUDGET, what)


def _binned(z, cell, ncells):
    """(rows, ncells) sums of the entries of each row of z by their ``cell``."""
    flat = (np.arange(len(z))[:, None] * ncells + cell).ravel()
    size = len(z) * ncells
    return (np.bincount(flat, z.real.ravel(), size)
            + 1j * np.bincount(flat, z.imag.ravel(), size)).reshape(len(z), ncells)


def _lattice_values(const, z, freqs, degree, size):
    """(rows, size^D) values of const + Re sum_p z[:, p] e^{i freqs[p] . theta}
    on the row-major lattice theta = 2 pi j / size, exact for any size: z is
    summed into the box of frequencies -degree..degree, which is then summed
    one axis at a time against E[j, k] = e^{2 pi i j k / size}."""
    K, D, rows = 2 * degree + 1, freqs.shape[1], len(z)
    box = _binned(z, (freqs + degree) @ K ** np.arange(D)[::-1], K**D).reshape(rows, *(K,) * D)
    jk = np.outer(np.arange(size), np.arange(-degree, degree + 1)) % size
    E = np.exp(2j * np.pi * jk / size)
    for _ in range(D):
        box = np.tensordot(box, E, axes=([1], [1]))
    return const[:, None] + box.real.reshape(rows, -1)


def _leaf_positions(U: np.ndarray, trig: TrigSpace, m: int, grid: int):
    """qmin and average of the minimizing leaf of each solution in a (S, n, B)
    stack: the first row-major grid^m index whose e1 basic-part value is within
    TIE_RTOL * (its l1 norm, which bounds every average) of the minimum."""
    G1 = U[:, 1 if U.shape[1] > 1 else 0] * trig.transversal_mask(m)
    averages = _lattice_values(G1[:, 0], G1[:, 1::2] - 1j * G1[:, 2::2],
                               trig.freqs[:, :m], max(trig.degree, 0), grid)
    tie = averages.min(axis=1) + TIE_RTOL * np.abs(G1).sum(axis=1)
    qmin = np.argmax(averages <= tie[:, None], axis=1)
    return qmin, averages[np.arange(len(U)), qmin]


def _min_leaf(solutions: np.ndarray, cfg: TorusConfig, trig: TrigSpace, grid: int):
    """Per solution of a (S, ncols) stack: qmin and avg of ``_leaf_positions``
    (live rows, in chunks), and bounds on the real part's gradient on that
    leaf and on its variation. With G = c + sum_p Re(z_p e^{i k_p . theta}),
    z = a - i b for a pair (a, b), k = (k', k'') and x = x_qmin, dG/d(theta_a)
    on the leaf is Re sum_p w_p e^{i k'' . y}, w_p = i k_{p,a} z_p e^{i k' . x}
    (conj(w_p) on -k'' when k'' is negative). Summed by k'' up to sign into
    W_{k''}, the gradient is at most |Re W_0| + sum_{k'' != 0} |W_{k''}|, with
    equality on the k'' = 0 group; the variation is at most 2 sum_p |z_p|. A
    flat row gets no leaf (qmin -1, avg NaN) and both bounds exactly 0; a
    stack with no live row returns before any lattice work."""
    m, chunk = cfg.m, lattice_chunks(cfg, grid)
    U = np.asarray(solutions, dtype=float).reshape(-1, cfg.n, trig.size)
    rows = np.flatnonzero(U[:, 0, 1:].any(axis=1))
    qmin, avg = np.full(len(U), -1), np.full(len(U), np.nan)
    grad, variation = np.zeros(len(U)), np.zeros(len(U))
    if not len(rows):
        return qmin, avg, grad, variation
    z = U[rows, 0, 1::2] - 1j * U[rows, 0, 2::2]
    variation[rows] = 2 * np.abs(z).sum(axis=1)
    for r in (rows[s:s + chunk] for s in range(0, len(rows), chunk)):
        qmin[r], avg[r] = _leaf_positions(U[r], trig, m, grid)
    x = np.stack(np.unravel_index(qmin[rows], (grid,) * m), axis=1)
    w = 1j * z * np.exp(2j * np.pi * (x @ trig.freqs[:, :m].T % grid) / grid)
    # the signed lexicographic rank of k'': 0 for k'' = 0, < 0 when k'' is negative
    rank = trig.freqs[:, m:] @ (2 * trig.degree + 1) ** np.arange(cfg.ncoords - m)[::-1]
    w[:, rank < 0] = w[:, rank < 0].conj()
    W = _binned((w[:, None] * trig.freqs.T).reshape(-1, trig.npairs), np.abs(rank),
                np.abs(rank).max() + 1).reshape(len(rows), cfg.ncoords, -1)
    grad[rows] = (np.abs(W[..., 0].real) + np.abs(W[..., 1:]).sum(axis=2)).max(axis=1)
    return qmin, avg, grad, variation


def _min_leaf_report(grad: float, variation: float, tol: float, **leaf) -> Report:
    rep = Report()
    rep.add("min_leaf_gradient", grad <= tol, grad)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.data.update(leaf, GRAD_MAX=grad, G_VARIATION=variation)
    return rep


def verify_min_leaf(solution: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                    grid: int = 32, tol: float = 1e-8) -> Report:
    """Locate the leaf minimizing the e1 leaf-average (flat solutions too) and
    check the real part is critical there (and in fact constant) by the
    bounds of ``_min_leaf``. Kept, with ``TrigSpace.values``, only because
    benchmark metrics name them."""
    _, _, grad, var = _min_leaf(solution, cfg, trig, grid)
    qmin, avg = _leaf_positions(np.reshape(solution, (1, cfg.n, -1)), trig, cfg.m, grid)
    return _min_leaf_report(float(grad[0]), float(var[0]), tol,
                            MIN_LEAF_INDEX=int(qmin[0]), MIN_LEAF_AVG=float(avg[0]))


def verify_min_leaf_all(solutions: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                        grid: int = 32, tol: float = 1e-8) -> Report:
    """The minimizing-leaf check over every solution, worst case reported."""
    _, _, grad, var = _min_leaf(solutions, cfg, trig, grid)
    return _min_leaf_report(float(grad.max(initial=0.0)), float(var.max(initial=0.0)), tol)
