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
``forms`` stack C over their closedness rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import StandardBasisInfo, StructureConstants, standardize
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
        reps = []
        for k in itertools.product(range(-degree, degree + 1), repeat=ncoords):
            for entry in k:
                if entry > 0:
                    reps.append(k)
                    break
                if entry < 0:
                    break
        freqs = np.array(reps, dtype=np.int64).reshape(len(reps), ncoords)
        return cls(ncoords, degree, freqs)

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
        if self.npairs:
            basic = np.all(self.freqs[:, m:] == 0, axis=1)
            mask[1::2] = basic
            mask[2::2] = basic
        return mask

    def values(self, points: np.ndarray) -> np.ndarray:
        """Design matrix of all basis functions at the given points (P, N)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((points.shape[0], self.size))
        out[:, 0] = 1.0
        if self.npairs:
            phases = points @ self.freqs.T.astype(float)
            out[:, 1::2] = np.cos(phases)
            out[:, 2::2] = np.sin(phases)
        return out

    def derivative(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        """Coefficients of d/d(theta_axis); the trig index is the last axis.

        On pair p with k = freqs[p, axis], cos -> -k sin and sin -> k cos.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        k = self.freqs[:, axis]
        out = np.zeros_like(coeffs)
        out[..., 1::2] = k * coeffs[..., 2::2]
        out[..., 2::2] = -k * coeffs[..., 1::2]
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


def make_torus(source: StructureConstants | str, m: int) -> TorusConfig:
    """Standardize an algebra (or preset name) and build the torus model."""
    from .algebra import resolve

    A = resolve(source) if isinstance(source, str) else source
    A_std, info = standardize(A)
    return TorusConfig(A_std, info, m)


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
    has the singular values of S(k), each taken twice.
    """

    trig: TrigSpace
    symbols: np.ndarray  # (modes, rows, unknowns)

    @property
    def nrows(self) -> int:
        return self.symbols.shape[1] * self.trig.size

    @property
    def ncols(self) -> int:
        return self.symbols.shape[2] * self.trig.size

    def residual_inf(self, u: np.ndarray) -> float:
        """Largest constraint violation of a coefficient vector."""
        U = np.asarray(u, dtype=float).reshape(self.symbols.shape[2], self.trig.size)
        # a leading zero column pairs up (0, constant), then (cos, sin) per pair
        modal = np.pad(U, ((0, 0), (1, 0))).reshape(U.shape[0], -1, 2).swapaxes(0, 1)
        return float(np.abs(self.symbols @ modal).max(initial=0.0))


def capped_trig_space(cfg: TorusConfig, degree: int, unknowns: int,
                      cap: int) -> TrigSpace:
    """The degree-``degree`` trig space, unless the system would have more than
    ``cap`` columns (``unknowns`` times (2d+1)^N).

    The count is arithmetic, so an oversized request fails with
    SizeCapExceeded before any frequency is enumerated. A negative degree
    leaves only the constant, as in ``TrigSpace.build``.
    """
    ncols = unknowns * (2 * max(degree, 0) + 1) ** cfg.ncoords
    if ncols > cap:
        raise SizeCapExceeded(f"{ncols} columns exceed the cap {cap}")
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
    return ConstraintSystem(trig, commutator_rows(cfg) @ k_tensor_id)


def solve_nullspace(system: ConstraintSystem,
                    tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis from one batched SVD of the symbols.

    A right singular vector v of a mode is null when its singular value is
    at most tol * smax, with smax the largest singular value of any mode; a
    symbol that vanishes is null in every direction. v gives one row on the
    constant columns for mode 0, and two rows for a pair: v on its cos
    columns, then v on its sin columns. Rows are mode-major and, within a
    mode, by ascending singular value; each row's largest entry is positive.
    """
    S = system.symbols
    modes, nrows, nunk = S.shape
    # vh must be square; u is needed in full only when a symbol is wide
    _, s, vh = np.linalg.svd(S, full_matrices=nrows < nunk)
    vh[~S.any(axis=(1, 2))] = np.eye(nunk)
    rank = np.sum(s > tol * s.max(initial=0.0), axis=1)
    B = system.trig.size
    rows = []
    for p in range(modes):
        for v in vh[p, rank[p]:][::-1]:
            for t in ([0] if p == 0 else [2 * p - 1, 2 * p]):
                row = np.zeros((nunk, B))
                row[:, t] = v
                rows.append(row.reshape(-1))
    if not rows:
        return np.zeros((0, system.ncols))
    return linalg.canonical_signs(np.vstack(rows))


# -- verification suites -----------------------------------------------------------


def verify_constancy(solutions: np.ndarray, cfg: TorusConfig,
                     trig: TrigSpace, tol: float = 1e-8) -> Report:
    """Check that real parts are constant and e1-components are basic.

    (a) the real-part component of every solution has zero coefficient on
    every non-constant basis function; (b) the e1-component is supported on
    transversal-only frequencies (hence constant on every leaf).
    """
    B = trig.size
    tmask = trig.transversal_mask(cfg.m)
    rep = Report()
    worst_real = 0.0
    worst_e1 = 0.0
    violations: list[str] = []
    for q, u in enumerate(np.atleast_2d(solutions)):
        U = u.reshape(cfg.n, B)
        nonconst = np.abs(U[0, 1:])
        mass = float(np.linalg.norm(nonconst))
        if mass > worst_real:
            worst_real = mass
        if mass > tol and len(violations) < 8:
            t_bad = 1 + int(np.argmax(nonconst))
            violations.append(f"solution={q} freq={trig.freq_of(t_bad)}")
        e1_bad = float(np.linalg.norm(U[1, ~tmask])) if cfg.n > 1 else 0.0
        worst_e1 = max(worst_e1, e1_bad)
    rep.add("real_part_constant", worst_real <= tol, worst_real)
    rep.add("e1_component_basic", worst_e1 <= tol, worst_e1)
    rep.put("NULLSPACE_DIM", int(np.atleast_2d(solutions).shape[0]))
    rep.put("REAL_PART_NONCONST_MASS", worst_real)
    rep.put("E1_NONBASIC_MASS", worst_e1)
    for v, text in enumerate(violations):
        rep.put(f"REAL_PART_VIOLATION[{v}]", text)
    return rep


def verify_socle_decomposition(solutions: np.ndarray, cfg: TorusConfig,
                               trig: TrigSpace,
                               tol: float = 1e-8) -> Report:
    """Check each solution is a constant plus socle components times basic
    functions: all non-constant coefficient mass must sit in socle
    components with transversal-only frequencies."""
    B = trig.size
    tmask = trig.transversal_mask(cfg.m)
    socle = set(cfg.info.socle)
    allowed = np.zeros((cfg.n, B), dtype=bool)
    allowed[:, 0] = True
    for comp in range(cfg.n):
        if comp in socle:
            allowed[comp] = tmask
    rep = Report()
    worst = 0.0
    for u in np.atleast_2d(solutions):
        U = u.reshape(cfg.n, B)
        worst = max(worst, float(np.linalg.norm(U[~allowed])))
    rep.add("socle_decomposition", worst <= tol, worst)
    rep.put("SOCLE_DIM", len(socle))
    rep.put("SOCLE_RESIDUAL_MASS", worst)
    return rep


def _lattice(points_per_axis: int, ndims: int) -> np.ndarray:
    """Row-major lattice over [0, 2*pi)^ndims."""
    if ndims == 0:
        return np.zeros((1, 0))
    axes = [np.arange(points_per_axis) * (2 * np.pi / points_per_axis)] * ndims
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def verify_min_leaf(solution: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                    grid: int = 32, leaf_grid: int = 8, tol: float = 1e-8,
                    system: ConstraintSystem | None = None) -> Report:
    """Locate the leaf minimizing the leaf-average of the e1-component and
    check the real part is critical there (and in fact constant).

    The leaf average of a trig polynomial drops every frequency with a
    non-transversal entry, so it is evaluated exactly. Ties go to the
    smallest row-major grid index.
    """
    n, m, N = cfg.n, cfg.m, cfg.ncoords
    B = trig.size
    U = np.asarray(solution, dtype=float).reshape(n, B)
    g, g1 = U[0], U[1] if n > 1 else U[0]

    tmask = trig.transversal_mask(m)
    trans_pts = np.zeros((grid**m, N))
    trans_pts[:, :m] = _lattice(grid, m)
    averages = trig.values(trans_pts) @ (g1 * tmask)
    qmin = int(np.argmin(averages))

    leaf_pts = np.zeros((leaf_grid ** (N - m), N))
    leaf_pts[:, :m] = trans_pts[qmin, :m]
    leaf_pts[:, m:] = _lattice(leaf_grid, N - m)
    leaf_vals = trig.values(leaf_pts)
    grad_max = 0.0
    for axis in range(N):
        d_g = trig.derivative(g, axis)
        grad_max = max(grad_max, float(np.abs(leaf_vals @ d_g).max()))

    g_all = np.concatenate([trig.values(trans_pts) @ g, leaf_vals @ g])
    variation = float(g_all.max() - g_all.min())

    rep = Report()
    rep.add("min_leaf_gradient", grad_max <= tol, grad_max)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.put("MIN_LEAF_INDEX", qmin)
    rep.put("MIN_LEAF_AVG", float(averages[qmin]))
    rep.put("GRAD_MAX", grad_max)
    rep.put("G_VARIATION", variation)
    if system is not None:
        res = system.residual_inf(solution)
        rep.add("adiff_constraints", res <= tol, res)
        rep.put("ADIFF_RESIDUAL", res)
    return rep


def verify_min_leaf_all(solutions: np.ndarray, cfg: TorusConfig, trig: TrigSpace,
                        grid: int = 32, leaf_grid: int = 8, tol: float = 1e-8,
                        system: ConstraintSystem | None = None) -> Report:
    """Aggregate the minimizing-leaf check over every solution."""
    solutions = np.atleast_2d(solutions)
    grad_max = 0.0
    variation = 0.0
    residual = 0.0
    for u in solutions:
        sub = verify_min_leaf(u, cfg, trig, grid, leaf_grid, tol, system)
        grad_max = max(grad_max, sub.data["GRAD_MAX"])
        variation = max(variation, sub.data["G_VARIATION"])
        if system is not None:
            residual = max(residual, sub.data["ADIFF_RESIDUAL"])
    rep = Report()
    rep.add("min_leaf_gradient", grad_max <= tol, grad_max)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.put("GRAD_MAX", grad_max)
    rep.put("G_VARIATION", variation)
    if system is not None:
        rep.add("adiff_constraints", residual <= tol, residual)
        rep.put("ADIFF_RESIDUAL", residual)
    return rep
