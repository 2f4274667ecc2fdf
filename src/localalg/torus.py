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
annihilates its cos coefficients and its sin coefficients on every mode. So
the nullspace has a basis of vectors on one trig index each, and a solution
is kept as that index and its vector (``solution_rows``), not as a dense row.

A function is A-differentiable exactly when its differential is A-linear,
in span{L_b} on every slot. Its symbol is the differential's coordinates on
the complement R of that span in ``TorusConfig.slot_basis``; the 1-forms of
``forms`` solve on its frame Q, with a Hodge projector of closedness rows.

The real part is critical on the leaf minimizing the e1 leaf-average
(Molino, Riemannian foliations, 1988). Every solution row sits on one trig
index, so that leaf on the grid^m transversal lattice, the real part's
gradient there and its variation all have a closed form (``_leaf_bounds``):
the leaf sits at the multiples of gcd(k', grid) nearest the minimiser, which
exact integer arithmetic finds in O(m) per class of rows at any grid. Only a
live row reaches it: a real part off trig index 0 that is not 0 (NaN and
inf count).
Every actual solution is flat, so GRAD_MAX and G_VARIATION are 0 by
construction; the check has content only on injected non-solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import StandardBasisInfo, StructureConstants
from .errors import SizeCapExceeded
from .report import Report

DEFAULT_CAP = 20000
DEFAULT_NULL_TOL = 1e-8


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
        if degree <= 0:  # only the constant; np.indices takes at most 64 axes
            return cls(ncoords, degree, np.zeros((0, ncoords), dtype=np.int64))
        K = 2 * degree + 1
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
    """A torus over the algebra: standard-basis algebra, its info, and m.
    ``slot_basis``: a complete QR of the (n^2, n) matrix whose column b is
    L_b[i, c] at (c, i); its first n columns Q span the A-linear maps of one
    slot, and the other n^2 - n columns R their orthogonal complement."""

    algebra: StructureConstants
    info: StandardBasisInfo
    m: int

    def __post_init__(self):
        self.mults = self.algebra.basis_mult_matrices()
        vec = self.mults.transpose(2, 1, 0).reshape(self.n**2, self.n)
        self.slot_basis = np.linalg.qr(vec, mode="complete")[0]

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def ncoords(self) -> int:
        return self.n * self.m

    def basic_socle_dim(self, degree: int) -> int:
        """s ((2d+1)^m - 1), d = max(degree, 0): the socle elements times the
        non-constant trig functions of the m transversal coordinates, the part
        of the theorem's solution counts beyond the constants."""
        return len(self.info.socle) * ((2 * max(degree, 0) + 1) ** self.m - 1)


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
    only on the orthonormal ``frame`` F: the symbols act on x = F^T u. Of
    ``TorusConfig.slot_basis``, functions take R^T as rows on the identity F,
    and forms Q on every slot as F. Solutions are ``solution_rows``, one trig
    index and one vector of length unknowns per row.
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

    def residual_inf(self, rows: np.ndarray) -> float:
        """Largest constraint violation of ``solution_rows``: the symbol of
        each row's mode (trig index b is in mode (b + 1) // 2) on X = vec F,
        and the part vec - X F^T off the frame. The system is block diagonal
        by trig index, so this is exact for any rows; no rows give 0. For
        functions (ADIFF_RESIDUAL) it is the largest coordinate on R."""
        X = rows["vec"] @ self.frame
        off = np.abs(rows["vec"] - X @ self.frame.T).max(initial=0.0)
        modes = np.take(self.symbols, (rows["index"] + 1) // 2, axis=0)
        return float(np.maximum(np.abs(modes @ X[:, :, None]).max(initial=0.0), off))


def solution_rows(index: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """One structured row per vector: field ``index`` holds its trig index and
    field ``vec`` its coefficients there, one per unknown."""
    rows = np.empty(len(vecs), [("index", np.intp), ("vec", float, vecs.shape[1:])])
    rows["index"], rows["vec"] = index, vecs
    return rows


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

    The counts are arithmetic: an oversized request, or a basis that int64
    cannot index (N >= 40 at degree >= 1), fails with SizeCapExceeded before
    any frequency is enumerated. A negative degree leaves only the constant.
    """
    base = 2 * max(degree, 0) + 1
    _size(unknowns, base, cfg.ncoords, cap, f"{{}} columns exceed the cap {cap}")
    _size(1, base, cfg.ncoords, 2**63 - 1, "{} trig basis functions cannot be indexed in int64")
    return TrigSpace.build(cfg.ncoords, degree)


def assemble_function_constraints(cfg: TorusConfig, degree: int,
                                  cap: int = DEFAULT_CAP) -> ConstraintSystem:
    """Linear system whose kernel is the space of A-differentiable functions.

    Unknowns: the n components of one A-valued function. On slot j the
    differential of mode k is D_j = k_j tensor I_n on (c, i), k_j[c] = k at
    coordinate c*m + j, and the symbol is R^T D_j, rows (j, r). S^T S = sum_j
    D_j^T (I - Q Q^T) D_j: the nullspace of [W, L_a] = 0, singular values <= |k|.
    """
    trig = capped_trig_space(cfg, degree, cfg.n, cap)
    n, R = cfg.n, cfg.slot_basis[:, cfg.n:]
    k = trig.mode_freqs().reshape(-1, n, cfg.m).transpose(0, 2, 1)
    symbols = (k @ R.reshape(n, n, -1).transpose(0, 2, 1).reshape(n, -1)).reshape(len(k), -1, n)
    return ConstraintSystem(trig, symbols, np.eye(n))


def solve_nullspace(system: ConstraintSystem,
                    tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis, as ``solution_rows``, from one batched SVD
    of the symbols that ``linalg._full_rank_modes`` does not prove full rank.
    The right singular vectors of a mode that the rank rule of
    ``linalg._svd_rank`` does not count over the whole stack are null, so a
    vanishing symbol is null in every direction. A null vector v (F v on the
    ``frame`` F) gives one row on trig index 0 for mode 0, and two rows for a
    pair, on its cos index and then on its sin index, which carry the same
    vector. Rows are mode-major and, within a mode, by ascending singular
    value; each vector's largest entry is positive.
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
    return solution_rows(cos_sin[vec, t], vecs[vec])


# -- verification suites -----------------------------------------------------------


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit as np.linalg.norm of that row."""
    X = np.ascontiguousarray(X)
    return np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0, 0]


def verify_constancy(rows: np.ndarray, cfg: TorusConfig,
                     trig: TrigSpace, tol: float = 1e-8) -> Report:
    """Check that real parts are constant and e1-components are basic, on
    ``solution_rows``.

    (a) the real-part component of every solution has zero coefficient on
    every non-constant basis function: |vec[0]| off trig index 0; (b) the
    e1-component is supported on transversal-only frequencies (hence
    constant on every leaf): |vec[1]| where the index is not transversal.
    """
    index, vec = rows["index"], rows["vec"]
    mass = np.abs(np.where(index != 0, vec[:, 0], 0.0))
    worst_real = float(mass.max(initial=0.0))
    worst_e1 = float(np.abs(vec[~trig.transversal_mask(cfg.m)[index], 1:2]).max(initial=0.0))
    rep = Report()
    rep.add("real_part_constant", worst_real <= tol, worst_real)
    rep.add("e1_component_basic", worst_e1 <= tol, worst_e1)
    rep.put("NULLSPACE_DIM", len(rows))
    rep.put("REAL_PART_NONCONST_MASS", worst_real)
    rep.put("E1_NONBASIC_MASS", worst_e1)
    for v, q in enumerate(np.flatnonzero(mass > tol)[:8]):
        rep.put(f"REAL_PART_VIOLATION[{v}]", f"solution={q} freq={trig.freq_of(index[q])}")
    return rep


def verify_socle_decomposition(rows: np.ndarray, cfg: TorusConfig,
                               trig: TrigSpace,
                               tol: float = 1e-8) -> Report:
    """Check each solution of ``solution_rows`` is a constant plus socle
    components times basic functions: all non-constant coefficient mass must
    sit in socle components with transversal-only frequencies."""
    socle = list(cfg.info.socle)
    allowed = np.zeros((cfg.n, trig.size), dtype=bool)
    allowed[:, 0] = True
    allowed[socle] = trig.transversal_mask(cfg.m)
    off = np.where(allowed[:, rows["index"]].T, 0.0, rows["vec"])
    worst = float(_row_norms(off).max(initial=0.0))
    rep = Report()
    rep.add("socle_decomposition", worst <= tol, worst)
    rep.put("SOCLE_DIM", len(socle))
    rep.put("SOCLE_RESIDUAL_MASS", worst)
    return rep


def _first_leaf(k: list[int], sin: bool, sign: int, grid: int) -> tuple[list[int], int]:
    """Digits of the first row-major j on the grid^m lattice at which
    sign * cos (sin if ``sin``) of 2 pi t / grid, t = k . j mod grid, is
    least, and that t; j = 0 and t = 0 when sign is 0. In exact integers:
    t = u g with g = gcd(k, grid) and u mod size = grid / g, and the value
    grows with the distance of u from the minimiser q / 4 on that circle,
    q = size * (2, 0, 3 or 1) for +cos, -cos, +sin or -sin; the least sit at
    the nearest u, (q + 1) // 4 and (q + 2) // 4 mod size. Digit j_i is the
    least solution of k_i j_i = t mod gcd(k_{i+1..}, grid) over those t, by
    a modular inverse; the later digits then reach t."""
    if sign == 0:
        return [0] * len(k), 0
    reach = list(itertools.accumulate(reversed(k), math.gcd, initial=grid))[::-1]
    size = grid // reach[0]
    q = size * ((3 if sign > 0 else 1) if sin else (2 if sign > 0 else 0))
    t, j = {(q + 1) // 4 % size * reach[0], (q + 2) // 4 % size * reach[0]}, []
    for ki, g, step in zip(k, reach, reach[1:]):
        inv = pow(ki // g, -1, step // g)
        j.append(min(u % step // g * inv % (step // g) for u in t))
        t = [u - ki * j[-1] for u in t if (u - ki * j[-1]) % step == 0]
    return j, sum(ki * ji for ki, ji in zip(k, j)) % grid


def _leaf_bounds(rows: np.ndarray, cfg: TorusConfig, trig: TrigSpace, grid: int):
    """Per row of ``solution_rows``: the digits x of its minimizing leaf
    (Python ints), the e1 average there, and bounds on the real part's
    gradient on that leaf and on its variation, all in closed form. A row on
    one trig index has real part c cos(k . theta) or c sin(k . theta), and e1
    average e cos(k' . x) or e sin(k' . x) with e its e1 coefficient if
    k'' = 0 and 0 otherwise, where k = (k', k''). So the leaf depends only on
    (k', cos or sin, sign of e), and ``_first_leaf`` finds it and its phase
    k' . x mod grid once per such group; a non-finite e gives x = 0 and
    average NaN. With z = c (cos) or -i c (sin), dG/d(theta_a) on the leaf is
    Re(w k_a e^{i k'' . y}), w = i z e^{i k' . x}: the gradient is
    max_a |Re(w k_a)| if k'' = 0 and max_a |w k_a| otherwise, and the
    variation is 2 |z|. Both are exact: y runs over the whole leaf, so
    |Re(w k_a e^{i k'' . y})| reaches |w k_a| when k'' != 0."""
    m, index = cfg.m, rows["index"]
    k = trig.mode_freqs()[(index + 1) // 2]
    sin = (index > 0) & (index % 2 == 0)
    c = np.where(index != 0, rows["vec"][:, 0], 0.0)
    e = rows["vec"][:, min(1, cfg.n - 1)] * trig.transversal_mask(m)[index]
    finite = np.isfinite(e)
    sign = np.where(finite, np.sign(e), 0).astype(np.int64)
    # on a transversal index the trig index is (k', cos or sin); elsewhere e is 0
    _, first, inverse = np.unique(index * sign, return_index=True, return_inverse=True)
    leaves = [_first_leaf(*group, grid) for group in
              zip(k[first, :m].tolist(), sin[first].tolist(), sign[first].tolist())]
    x = np.array([j for j, _ in leaves], dtype=object).reshape(-1, m)[inverse]
    shift = max(grid.bit_length() - 1000, 0)  # keeps t and grid inside float64
    phase = np.array([t >> shift for _, t in leaves], dtype=float)[inverse]
    rot = np.exp(2j * np.pi * phase / (grid >> shift))
    avg = np.where(finite, e * np.where(sin, rot.imag, rot.real), np.nan)
    z = np.where(sin, 0.0, c) - 1j * np.where(sin, c, 0.0)
    W = (1j * z * rot)[:, None] * k
    grad = np.where(k[:, m:].any(axis=1)[:, None], np.abs(W), np.abs(W.real)).max(axis=1)
    return x, avg, grad, 2 * np.abs(z)


def _min_leaf_report(grad: float, variation: float, tol: float, **leaf) -> Report:
    rep = Report()
    rep.add("min_leaf_gradient", grad <= tol, grad)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.data.update(leaf, GRAD_MAX=grad, G_VARIATION=variation)
    return rep


def verify_min_leaf(row: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                    grid: int = 32, tol: float = 1e-8) -> Report:
    """The check of ``verify_min_leaf_all`` on one row of ``solution_rows``,
    flat or live, with its leaf's row-major index and e1 average. Kept only
    because ``bench/`` names it, until ROADMAP item 9 restates that metric."""
    x, avg, grad, var = _leaf_bounds(np.reshape(row, 1), cfg, trig, grid)
    qmin = sum(int(j) * grid**p for p, j in enumerate(x[0, ::-1]))
    return _min_leaf_report(float(grad[0]), float(var[0]), tol,
                            MIN_LEAF_INDEX=qmin, MIN_LEAF_AVG=float(avg[0]))


def verify_min_leaf_all(rows: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                        grid: int = 32, tol: float = 1e-8) -> Report:
    """The minimizing-leaf check over every row of ``solution_rows``, worst
    case reported. Only the live rows, whose real part is off trig index 0
    and not 0 (NaN counts), go to ``_leaf_bounds``: both bounds are exactly
    0 on every other row."""
    live = rows[(rows["index"] != 0) & (rows["vec"][:, 0] != 0)]
    if not len(live):  # as for every actual solution
        return _min_leaf_report(0.0, 0.0, tol)
    _, _, grad, var = _leaf_bounds(live, cfg, trig, grid)
    return _min_leaf_report(float(grad.max()), float(var.max()), tol)
