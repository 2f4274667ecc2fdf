"""Shared helpers and independent oracles for the test suite."""

import functools
import importlib.util
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from localalg import algebra
from localalg import expr as ex
from localalg import linalg
from localalg.algebra import (
    StandardBasisInfo,
    StructureConstants,
    Violation,
    graded_multiindices,
    mul,
    radical_basis,
)
from localalg.errors import AlgebraFormatError, DomainError, NonUnitError, SpanFailure
from localalg.forms import INJECTIVITY_TOL, assemble_form_constraints
from localalg.lift import UNIT_THRESHOLD
from localalg.report import Report
from localalg.torus import (
    DEFAULT_CAP,
    DEFAULT_NULL_TOL,
    TorusConfig,
    assemble_function_constraints,
    solution_rows,
    solve_nullspace,
)

ROOT = Path(__file__).resolve().parent.parent
TIE_RTOL = 1e-12  # relative to the l1 norm of the averaged coefficients

PRESETS = ("dual", "trunc:3", "trunc:4", "square:2")
# the ``forms`` ladder: every run of tests/golden/forms_presets.txt
FORMS_LADDER = [(name, m, d) for name in ("dual", "trunc:2", "trunc:3", "trunc:4",
                                          "square:2", "square:3")
                for m in (1, 2, 3) for d in (0, 1, 2, 3)]
# ten stock expressions in x1, x2 used by the lift equivalence suite
CORPUS_VARS = 2
CORPUS = (
    "x1^2",
    "sin(x1)",
    "exp(x1) * sin(x2)",
    "x1 * x2",
    "1 / (2 + x1)",
    "log(3 + x1)",
    "x1^3 - 2*x1*x2 + x2^2",
    "cos(x1 * x2)",
    "sin(x1)^2 + cos(x1)^2",
    "exp(x1 + x2) / (1 + x1^2)",
)


def standard_basis(A: StructureConstants) -> StandardBasisInfo:
    """``algebra.standard_basis`` with the radical it takes."""
    return algebra.standard_basis(A, algebra.radical_basis(A))


def standardize(A: StructureConstants) -> tuple[StructureConstants, StandardBasisInfo]:
    """``algebra.standardize`` with the radical it takes."""
    return algebra.standardize(A, algebra.radical_basis(A))


def localalg_env() -> dict[str, str]:
    """The environment with ``src`` first on PYTHONPATH, for ``python -m
    localalg`` subprocesses, which do not see pytest's ``pythonpath``."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def make_torus(A: StructureConstants, m: int) -> TorusConfig:
    """Standardize an algebra and build the torus model."""
    return TorusConfig(*standardize(A), m)


def r_plus_r() -> StructureConstants:
    """The split algebra R + R: basis {1, u} with u*u = u. Not local."""
    C = np.zeros((2, 2, 2))
    C[0] = np.eye(2)
    C[1, 0, 1] = 1.0
    C[1, 1] = (0.0, 1.0)
    return StructureConstants(2, ("1", "u"), C)


def torus_coord(cfg: TorusConfig, slot, comp):
    """Torus coordinate index comp*m + slot of component ``comp`` of slot ``slot``."""
    return comp * cfg.m + slot


def basis_element(A: StructureConstants, i: int) -> np.ndarray:
    """The i-th basis vector of A as an element."""
    e = np.zeros(A.n)
    e[i] = 1.0
    return e


def real_part(a) -> float:
    """Coefficient of the unit (standard basis coordinates)."""
    return float(a[0])


def radical_part(a):
    """a minus its real part times the unit (standard basis coordinates)."""
    out = np.array(a, dtype=float)
    out[0] = 0.0
    return out


def two_gemm_validate(A: StructureConstants) -> tuple[list[Violation], np.ndarray | None]:
    """``algebra.validate_algebra`` with associativity by two GEMMs whatever C:
    (e_i e_j) e_k at [i, j, k, m], minus e_i (e_j e_k) made at [j, k, i, m]."""
    C, n = A.C, A.n
    with np.errstate(over="ignore", invalid="ignore"):
        assoc = (C.reshape(n * n, n) @ C.reshape(n, n * n)).reshape((n,) * 4)
        right = C.reshape(n * n, n) @ np.swapaxes(C, 0, 1).reshape(n, n * n)
        np.subtract(assoc, right.reshape((n,) * 4).transpose(2, 0, 1, 3), out=assoc)
    if not np.all(np.isfinite(assoc)):
        raise AlgebraFormatError("products of the structure constants leave the float range")
    out = []
    for axiom, deviation, head in (("commutativity", C - np.swapaxes(C, 0, 1), ()),
                                   ("associativity", assoc, ()),
                                   ("unit", C[0] - np.eye(n), (0,))):
        worst = np.abs(deviation)
        if worst.max() > linalg.RANK_TOL:
            where = np.unravel_index(np.argmax(worst), worst.shape)
            out.append(Violation(axiom, head + tuple(int(w) for w in where),
                                 float(worst.max())))
    rad = None if out else radical_basis(A)
    if rad is not None and rad.shape[0] != n - 1:
        out.append(Violation("locality", (rad.shape[0],), float(n - 1 - rad.shape[0])))
    return out, rad


def reference_associativity(C: np.ndarray) -> np.ndarray:
    """(e_i e_j) e_k - e_i (e_j e_k) at [i, j, k, m], as two plain einsums."""
    return np.einsum("ijl,lkm->ijkm", C, C) - np.einsum("jkl,ilm->ijkm", C, C)


def reference_violations(A: StructureConstants, tol: float = 1e-9) -> list[Violation]:
    """The axiom checks of ``validate_algebra`` with associativity by einsum;
    no float-range guards."""
    C = A.C
    out = []
    for axiom, deviation, head in (("commutativity", C - np.swapaxes(C, 0, 1), ()),
                                   ("associativity", reference_associativity(C), ()),
                                   ("unit", C[0] - np.eye(A.n), (0,))):
        worst = np.abs(deviation)
        if worst.max() > tol:
            where = np.unravel_index(np.argmax(worst), worst.shape)
            out.append(Violation(axiom, head + tuple(int(w) for w in where),
                                 float(worst.max())))
    if not out:
        rad_dim = radical_basis(A).shape[0]
        if rad_dim != A.n - 1:
            out.append(Violation("locality", (rad_dim,), float(A.n - 1 - rad_dim)))
    return out


def reference_canonical_signs(rows) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive, row by row."""
    rows = np.array(rows, dtype=float)
    for row in rows:
        if row.size and row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return rows


def mult_matrix(A: StructureConstants, a) -> np.ndarray:
    """Matrix of multiplication by ``a`` acting on coefficient vectors."""
    return np.einsum("i,ijk->kj", a, A.C)


def monomial_quotient(cells):
    """R[x, y] modulo every monomial outside the down-set ``cells``, unit first."""
    index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    C = np.zeros((n, n, n))
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            k = index.get((a[0] + b[0], a[1] + b[1]))
            if k is not None:
                C[i, j, k] = 1.0
    return StructureConstants(n, ("1",) + tuple(f"e{i}" for i in range(1, n)), C)


def changed_radical_basis(A, seed):
    """A in a seeded random basis: the unit stays first, every other basis
    vector is a random combination of the radical basis vectors."""
    P = np.eye(A.n)
    P[1:, 1:] = np.random.default_rng(seed).standard_normal((A.n - 1, A.n - 1))
    C = np.einsum("si,tj,stu,ku->ijk", P, P, A.C, np.linalg.inv(P))
    return StructureConstants(A.n, A.labels, C)


def shifted_unit_basis(A, seed):
    """A in the basis 1, e_i + c_i 1 with seeded random c_i: the radical
    vectors pick up a unit part, so their products come out as round-off."""
    P = np.eye(A.n)
    P[0, 1:] = np.random.default_rng(seed).standard_normal(A.n - 1)
    C = np.einsum("si,tj,stu,ku->ijk", P, P, A.C, np.linalg.inv(P))
    return StructureConstants(A.n, A.labels, C)


def scaled_trunc_spec(k, coef):
    """Spec text of R[a]/(a^k) on the basis 1, a1..a(k-1) with every product
    scaled, a_i a_j = coef a_(i+j), so that a1^p = coef^(p-1) a_p."""
    names = ["1"] + [f"a{i}" for i in range(1, k)]
    lines = [f"algebra n={k}", "basis " + " ".join(names)]
    lines += [f"mul a{i} a{j} = {coef}*a{i + j}" for i in range(1, k) for j in range(i, k - i)]
    return "\n".join(lines) + "\n"


def staircase_quotients(seed=20):
    """Two seeded monomial quotients of each size 4, 6, 9, 12, 16 and 20."""
    rng = np.random.default_rng(seed)
    return [monomial_quotient(staircase_cells(rng, n))
            for n in (4, 6, 9, 12, 16, 20) for _ in range(2)]


def staircase_cells(rng, n):
    """A random down-set of n cells in N^2, grown one addable corner at a
    time, sorted by degree and then higher x-exponent first."""
    cells = {(0, 0)}
    while len(cells) < n:
        addable = sorted(
            (a, b) for a in range(n) for b in range(n - a)
            if (a, b) not in cells
            and (a == 0 or (a - 1, b) in cells)
            and (b == 0 or (a, b - 1) in cells)
        )
        cells.add(addable[rng.integers(len(addable))])
    return sorted(cells, key=lambda c: (sum(c), -c[0]))


def poly_mul_trunc(a, b, order):
    """Truncated polynomial product: independent convolution oracle."""
    full = np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return full[:order]


def unit_safe_point(rng, m, n, real_scale=0.8, rad_scale=0.9):
    """Random element rows with bounded real parts; safe for the corpus
    (denominators 2+x1 and 1+x1^2 stay units, 3+x1 stays positive)."""
    pt = rng.uniform(-rad_scale, rad_scale, size=(m, n))
    pt[:, 0] = rng.uniform(-real_scale, real_scale, size=m)
    return pt


def torus_value_map(coeffs, cfg, trig):
    """A trig-coefficient function as a map on stacks of slot-major flat
    points, (P, m*n) -> (P, n), for defect checks."""
    n, m = cfg.n, cfg.m
    B = trig.size
    U = np.asarray(coeffs, dtype=float).reshape(n, B)

    def F(flat):
        theta = np.asarray(flat, dtype=float).reshape(-1, m, n).transpose(0, 2, 1)
        return trig.values(theta.reshape(len(theta), -1)) @ U.T

    return F


def radical_negation_map(A: StructureConstants):
    """Map negating all radical coordinates of the first slot (a non-example),
    on stacks of slot-major flat points."""

    def F(flat):
        out = -np.asarray(flat, dtype=float)[:, : A.n]
        out[:, 0] = flat[:, 0]
        return out

    return F


def invert(A: StructureConstants, a, nu: int | None = None):
    """Inverse of a unit ``a = c + r`` (r nilpotent) via the geometric series.

    Requires coordinates in which the non-unit basis directions are nilpotent
    (any standard basis qualifies); then c is the real part ``a[0]``.
    """
    a = A.element(a)
    c = a[0]
    if abs(c) <= UNIT_THRESHOLD * (1.0 + float(np.linalg.norm(a))):
        raise NonUnitError(f"real part {c} is numerically zero")
    terms = nu if nu is not None else A.n
    x = -a / c
    x[0] = 0.0  # x = -r/c
    out = A.unit()
    power = A.unit()
    for _ in range(1, terms):
        power = mul(A, power, x)
        out = out + power
    return out / c


def nilpotency_index(A: StructureConstants, a, tol: float = 1e-10) -> int | None:
    """Least S <= n with a^S = 0 within tolerance, or None."""
    a = A.element(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    power = a.copy()
    for S in range(1, A.n + 1):
        if np.abs(power).max() <= tol * scale**S:
            return S
        power = mul(A, power, a)
    return None


def reference_adiff_defect(F, X, A, h=1e-5):
    """The differentiability defect with one central difference per column:
    ``F`` is called on one point at a time and the commutator of every
    Jacobian block with every basis multiplication is formed separately."""
    n = A.n
    x0 = X.ravel()
    dim = x0.size
    J = np.empty((n, dim))
    for col in range(dim):
        step = np.zeros(dim)
        step[col] = h
        J[:, col] = (F((x0 + step)[None])[0] - F((x0 - step)[None])[0]) / (2 * h)
    worst = 0.0
    for j in range(len(X)):
        block = J[:, j * n:(j + 1) * n]
        for L in A.basis_mult_matrices():
            worst = max(worst, float(np.abs(block @ L - L @ block).max()))
    return worst


def constant_function_vectors(cfg, trig):
    """Coefficient vectors of the n constant functions e_i."""
    B = trig.size
    out = np.zeros((cfg.n, cfg.n * B))
    for i in range(cfg.n):
        out[i, i * B] = 1.0
    return out


def socle_embedding_vector(cfg, trig, socle_vec, f_coeffs):
    """Coefficients of f(transversal) * s for a socle element s.

    ``f_coeffs`` must be supported on transversal-only basis functions; the
    result is then an exact solution of the function constraints (the
    constructive half of the decomposition theorem).
    """
    B = trig.size
    out = np.zeros(cfg.n * B)
    for i in range(cfg.n):
        out[i * B:(i + 1) * B] = socle_vec[i] * f_coeffs
    return out


# -- dense oracle: the constraint systems assembled entry by entry ------------------


def _pair_blocks(trig):
    """(trig indices, local d/dtheta matrices (N, nb, nb)) per frequency pair.

    The constant comes first with a 1x1 zero derivative; each pair follows
    with the 2x2 rotation generator scaled by k_axis.
    """
    yield [0], np.zeros((trig.ncoords, 1, 1))
    for p in range(trig.npairs):
        k = trig.freqs[p].astype(float)
        D = np.zeros((trig.ncoords, 2, 2))
        D[:, 1, 0] = -k  # cos -> -k sin
        D[:, 0, 1] = k  # sin ->  k cos
        yield [1 + 2 * p, 2 + 2 * p], D


def _dense(nunk, trig, local_rows):
    """Stack every pair's local rows into one matrix; columns (unknown, trig)."""
    B = trig.size
    out = []
    for ts, D in _pair_blocks(trig):
        cols = [u * B + t for u in range(nunk) for t in ts]
        for R in local_rows(len(ts), D):
            row = np.zeros((R.shape[0], nunk * B))
            row[:, cols] = R
            out.append(row)
    return np.vstack(out)


def dense_function_constraints(cfg, trig):
    """Dense matrix of the function constraints: for every slot j and radical
    e_a, the Jacobian block J_j must commute with L_a in every entry (i, b)."""
    n, m, L = cfg.n, cfg.m, cfg.mults

    def local_rows(nb, D):
        for j in range(m):
            Dslot = [D[torus_coord(cfg, j, b)] for b in range(n)]
            for a in range(1, n):
                for i in range(n):
                    for b in range(n):
                        R = np.zeros((nb, n * nb))
                        for c in range(n):
                            if L[a][c, b]:
                                R[:, i * nb:(i + 1) * nb] += L[a][c, b] * Dslot[c]
                            if L[a][i, c]:
                                R[:, c * nb:(c + 1) * nb] -= L[a][i, c] * Dslot[b]
                        yield R

    return _dense(n, trig, local_rows)


def dense_form_constraints(cfg, trig, closedness=True):
    """Dense matrix of the 1-form constraints: A-linearity of every slot's
    value block, then (unless ``closedness`` is False) closedness component
    by component."""
    n, m, N, L = cfg.n, cfg.m, cfg.ncoords, cfg.mults

    def local_rows(nb, D):
        eye = np.eye(nb)

        def unk(coord, comp):
            return slice((coord * n + comp) * nb, (coord * n + comp + 1) * nb)

        for j in range(m):
            for a in range(1, n):
                for i in range(n):
                    for b in range(n):
                        R = np.zeros((nb, N * n * nb))
                        for c in range(n):
                            if L[a][c, b]:
                                R[:, unk(torus_coord(cfg, j, c), i)] += L[a][c, b] * eye
                            if L[a][i, c]:
                                R[:, unk(torus_coord(cfg, j, b), c)] -= L[a][i, c] * eye
                        yield R
        if not closedness:
            return
        for alpha in range(N):
            for beta in range(alpha + 1, N):
                for i in range(n):
                    R = np.zeros((nb, N * n * nb))
                    R[:, unk(beta, i)] += D[alpha]
                    R[:, unk(alpha, i)] -= D[beta]
                    yield R

    return _dense(N * n, trig, local_rows)


def reference_solve_nullspace(system, tol=1e-8):
    """``torus.solve_nullspace`` with one SVD of the whole symbol stack: no
    mode is spared by the Gram screen."""
    _, nrows, nsym = system.symbols.shape
    rank, vh = linalg._svd_rank(system.symbols, tol, full_matrices=nrows < nsym)
    null = np.arange(nsym) < (nsym - rank)[:, None]
    vecs = linalg.canonical_signs((vh @ system.frame.T)[:, ::-1][null])
    cos_sin = 2 * np.nonzero(null)[0][:, None] - np.array([1, 0])
    vec, t = np.nonzero(cos_sin >= 0)
    out = np.zeros((len(vec), vecs.shape[1], system.trig.size))
    out[np.arange(len(vec)), :, cos_sin[vec, t]] = vecs[vec]
    return out.reshape(len(vec), system.ncols)


def reference_residual_inf(system, u):
    """``ConstraintSystem.residual_inf`` on every column: every mode's symbol
    times every solution's (cos, sin) pair, and two full copies of the stack
    for the part off the frame."""
    modes, _, nsym = system.symbols.shape
    U = np.atleast_2d(np.asarray(u, dtype=float))
    U = U.reshape(len(U), system.frame.shape[0], system.trig.size)
    X = system.frame.T @ U
    off = np.abs(U - system.frame @ X).max(initial=0.0)
    # a leading zero column pairs up (0, constant), then (cos, sin) per pair
    modal = np.pad(X, ((0, 0), (0, 0), (1, 0))).reshape(len(U), nsym, modes, 2)
    modal = modal.transpose(2, 1, 0, 3).reshape(modes, nsym, 2 * len(U))
    return float(np.maximum(np.abs(system.symbols @ modal).max(initial=0.0), off))


def reference_trig_freqs(ncoords, degree):
    """``TrigSpace`` frequencies by enumeration: the entries of the box
    -degree..degree in lexicographic order whose first nonzero entry is
    positive."""
    zero = (0,) * ncoords
    reps = [k for k in itertools.product(range(-degree, degree + 1), repeat=ncoords)
            if k > zero]
    return np.array(reps, dtype=np.int64).reshape(len(reps), ncoords)


def scatter_rows(rows, size):
    """The dense (S, unknowns * size) stack of ``torus.solution_rows``, with
    (unknown, trig index) columns."""
    unknowns = rows["vec"].shape[1]
    out = np.zeros((len(rows), unknowns, size))
    out[np.arange(len(rows)), :, rows["index"]] = rows["vec"]
    return out.reshape(len(rows), unknowns * size)


def split_rows(dense, size):
    """``torus.solution_rows`` of a coefficient vector or (S, unknowns * size)
    stack: one row per (row, trig index) with a value (NaN and inf count),
    row-major; a zero row gives none. The constraint systems are block
    diagonal by trig index, so the split rows violate them exactly as much."""
    dense = np.asarray(dense, dtype=float)
    U = dense.reshape(-1, dense.shape[-1] // size, size)
    s, b = np.nonzero(U.any(axis=1))
    return solution_rows(b, U[s, :, b])


def trig_derivative(trig, coeffs, axis):
    """Coefficients of d/d(theta_axis) of polynomials of the ``TrigSpace``
    trig; the trig index is the last axis. On pair p with
    k = freqs[p, axis], cos -> -k sin and sin -> k cos."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = trig.freqs[:, axis]
    out = np.zeros_like(coeffs)
    out[..., 1::2] = k * coeffs[..., 2::2]
    out[..., 2::2] = -k * coeffs[..., 1::2]
    return out


def dense_function_differential(u, cfg, trig):
    """Coefficients of dG, flat (N*n*B,), for a function coefficient vector
    (n*B,), or one row per function for an (S, n*B) stack: ``trig_derivative``
    along every axis."""
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, cfg.n, trig.size)
    dG = np.stack([trig_derivative(trig, U, axis) for axis in range(cfg.ncoords)], axis=1)
    return dG.reshape(u.shape[:-1] + (cfg.ncoords * u.shape[-1],))


def reference_cohomology(cfg, degree, tol=DEFAULT_NULL_TOL, cap=DEFAULT_CAP):
    """``forms.cohomology_report`` on the dense solution stacks: ``linalg.rank``
    of each (S, N*B) component stack and of the (S, B) function components,
    the dG of the whole function stack, zero-mean combinations from the
    nullspace of every row's constant coefficients, and one least-squares fit
    of them on the dG. The theorem's counts take s from ``reference_socle_basis``."""
    form_sys = assemble_form_constraints(cfg, degree, cap)
    trig = form_sys.trig
    B, N, n = trig.size, cfg.ncoords, cfg.n
    form_sol = scatter_rows(solve_nullspace(form_sys, tol), B)
    fn_sol = scatter_rows(solve_nullspace(assemble_function_constraints(cfg, degree, cap), tol), B)
    breve = cfg.info.breve_indices()
    component_dims = {
        j0: linalg.rank(form_sol.reshape(len(form_sol), N, n, B)[:, :, j0].reshape(
            len(form_sol), N * B), tol) for j0 in breve}
    degree0_dims = {j0: linalg.rank(fn_sol[:, j0 * B:(j0 + 1) * B], tol) for j0 in breve}
    dG = dense_function_differential(fn_sol, cfg, trig)
    h0 = len(fn_sol) - linalg.rank(dG, tol)
    combos = linalg.nullspace_rows(form_sol[:, ::B].T, DEFAULT_NULL_TOL)
    zm = combos @ form_sol
    coef, *_ = np.linalg.lstsq(dG.T, zm.T, rcond=None)
    residual = float(np.linalg.norm(dG.T @ coef - zm.T, axis=0).max(initial=0.0))

    zm_expected = reference_socle_basis(cfg.algebra).shape[0] * ((2 * max(degree, 0) + 1)
                                                                 ** cfg.m - 1)
    form_expected = zm_expected + n * cfg.m
    labels, bound = cfg.algebra.labels, n * N
    rep = Report()
    if component_dims:
        worst = max(component_dims.values())
        rep.add("component_dim_bound", worst <= bound, worst)
        rep.add("degree0_components_constant",
                all(d == 1 for d in degree0_dims.values()), max(degree0_dims.values()))
    else:
        rep.add("component_dim_bound", True, "vacuous")
        rep.put("NOTE", "no non-socle radical components; component check is vacuous")
    rep.add("class_map_injective", residual <= INJECTIVITY_TOL, residual)
    rep.add("h0_constants_only", h0 == n, h0)
    rep.add("form_dims_theorem", (len(form_sol), len(zm)) == (form_expected, zm_expected),
            f"{len(form_sol)},{len(zm)}")
    rep.put("FORM_NULLSPACE_DIM", len(form_sol))
    rep.put("EXPECTED_FORM_NULLSPACE_DIM", form_expected)
    rep.data.update((f"DIM_ZBREVE[{labels[j0]}]", d) for j0, d in component_dims.items())
    rep.put("BOUND", bound)
    rep.data.update((f"DEGREE0_DIM[{labels[j0]}]", d) for j0, d in degree0_dims.items())
    rep.data.update(H0_DIM=h0, ZERO_MEAN_DIM=len(zm), EXPECTED_ZERO_MEAN_DIM=zm_expected,
                    INJECTIVITY_RESIDUAL=residual)
    return rep


def component_form(solution, j0, cfg, trig):
    """The real 1-form carried by standard component j0, flat (N*B,)."""
    table = np.asarray(solution, dtype=float).reshape(cfg.ncoords, cfg.n, trig.size)
    return table[:, j0].reshape(-1)


def exterior_derivative(omega, trig):
    """Coefficient table of d(omega) for omega of shape (N, n, B).

    Returns {(alpha, beta): (n, B)} for alpha < beta with
    d(omega)_{alpha beta} = d_alpha omega_beta - d_beta omega_alpha.
    """
    omega = np.asarray(omega, dtype=float)
    N = omega.shape[0]
    return {
        (alpha, beta): trig_derivative(trig, omega[beta], alpha)
        - trig_derivative(trig, omega[alpha], beta)
        for alpha in range(N) for beta in range(alpha + 1, N)
    }


# -- reference coefficient checks: one solution at a time


def reference_constancy(solutions, cfg, trig, tol=1e-8):
    """``verify_constancy`` as a loop over solutions, one norm per solution.
    np.maximum, unlike Python's max, keeps a NaN."""
    B = trig.size
    tmask = trig.transversal_mask(cfg.m)
    rep = Report()
    worst_real = 0.0
    worst_e1 = 0.0
    violations = []
    for q, u in enumerate(np.atleast_2d(solutions)):
        U = u.reshape(cfg.n, B)
        nonconst = np.abs(U[0, 1:])
        mass = float(np.linalg.norm(nonconst))
        worst_real = float(np.maximum(worst_real, mass))
        if mass > tol and len(violations) < 8:
            t_bad = 1 + int(np.argmax(nonconst))
            violations.append(f"solution={q} freq={trig.freq_of(t_bad)}")
        e1_bad = float(np.linalg.norm(U[1, ~tmask])) if cfg.n > 1 else 0.0
        worst_e1 = float(np.maximum(worst_e1, e1_bad))
    rep.add("real_part_constant", worst_real <= tol, worst_real)
    rep.add("e1_component_basic", worst_e1 <= tol, worst_e1)
    rep.put("NULLSPACE_DIM", int(np.atleast_2d(solutions).shape[0]))
    rep.put("REAL_PART_NONCONST_MASS", worst_real)
    rep.put("E1_NONBASIC_MASS", worst_e1)
    for v, text in enumerate(violations):
        rep.put(f"REAL_PART_VIOLATION[{v}]", text)
    return rep


def reference_socle_decomposition(solutions, cfg, trig, tol=1e-8):
    """``verify_socle_decomposition`` as a loop over solutions and components;
    np.maximum keeps a NaN."""
    B = trig.size
    tmask = trig.transversal_mask(cfg.m)
    allowed = np.zeros((cfg.n, B), dtype=bool)
    allowed[:, 0] = True
    for comp in cfg.info.socle:
        allowed[comp] = tmask
    worst = 0.0
    for u in np.atleast_2d(solutions):
        worst = float(np.maximum(worst, np.linalg.norm(u.reshape(cfg.n, B)[~allowed])))
    rep = Report()
    rep.add("socle_decomposition", worst <= tol, worst)
    rep.put("SOCLE_DIM", len(cfg.info.socle))
    rep.put("SOCLE_RESIDUAL_MASS", worst)
    return rep


# -- reference minimizing-leaf check: one solution, design matrices evaluated directly


def _lattice(points_per_axis, ndims):
    """Row-major lattice over [0, 2*pi)^ndims."""
    if ndims == 0:
        return np.zeros((1, 0))
    axes = [np.arange(points_per_axis) * (2 * np.pi / points_per_axis)] * ndims
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def reference_min_leaf(solution, cfg, trig, grid=32, leaf_grid=8, tol=1e-8):
    """Locate the leaf minimizing the leaf-average of the e1-component and
    check the real part is critical there, evaluating every basis function
    on the points of that leaf itself. Ties go to the smallest row-major
    grid index: averages within TIE_RTOL times the l1 norm of the basic
    coefficients (a bound on every average and on its round-off) of the
    minimum tie, so round-off does not decide between equal averages."""
    n, m, N = cfg.n, cfg.m, cfg.ncoords
    B = trig.size
    U = np.asarray(solution, dtype=float).reshape(n, B)
    g, g1 = U[0], U[1] if n > 1 else U[0]

    tmask = trig.transversal_mask(m)
    trans_pts = np.zeros((grid**m, N))
    trans_pts[:, :m] = _lattice(grid, m)
    averages = trig.values(trans_pts) @ (g1 * tmask)
    tie = averages.min() + TIE_RTOL * np.abs(g1 * tmask).sum()
    qmin = int(np.flatnonzero(averages <= tie)[0])

    leaf_pts = np.zeros((leaf_grid ** (N - m), N))
    leaf_pts[:, :m] = trans_pts[qmin, :m]
    leaf_pts[:, m:] = _lattice(leaf_grid, N - m)
    leaf_vals = trig.values(leaf_pts)
    grad_max = 0.0
    for axis in range(N):
        d_g = trig_derivative(trig, g, axis)
        # np.maximum, unlike Python's max, keeps a NaN
        grad_max = float(np.maximum(grad_max, np.abs(leaf_vals @ d_g).max()))

    g_all = np.concatenate([trig.values(trans_pts) @ g, leaf_vals @ g])
    variation = float(g_all.max() - g_all.min())

    rep = Report()
    rep.add("min_leaf_gradient", grad_max <= tol, grad_max)
    rep.add("real_part_variation", variation <= tol, variation)
    rep.put("MIN_LEAF_INDEX", qmin)
    rep.put("MIN_LEAF_AVG", float(averages[qmin]))
    rep.put("GRAD_MAX", grad_max)
    rep.put("G_VARIATION", variation)
    return rep


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


def dense_min_leaf(solutions, cfg, trig, grid):
    """The min-leaf check on dense rows over the whole grid^m lattice, an
    oracle for the closed form of ``torus._leaf_bounds``. Per row of an
    (S, ncols) stack: qmin, the first row-major grid^m index whose e1 basic-part value
    is within TIE_RTOL * (its l1 norm) of the minimum, evaluated on the whole
    lattice; avg, that value; and bounds on the real part's gradient on that
    leaf and on its variation. With G = c + sum_p Re(z_p e^{i k_p . theta}),
    z = a - i b for a pair (a, b), k = (k', k'') and x = x_qmin, dG/d(theta_a)
    on the leaf is Re sum_p w_p e^{i k'' . y}, w_p = i k_{p,a} z_p e^{i k' . x}
    (conj(w_p) on -k'' when k'' is negative). Summed by k'' up to sign into
    W_{k''}, the gradient is at most |Re W_0| + sum_{k'' != 0} |W_{k''}|; the
    variation is at most 2 sum_p |z_p|. Any number of trig indices per row."""
    m = cfg.m
    U = np.asarray(solutions, dtype=float).reshape(-1, cfg.n, trig.size)
    G1 = U[:, 1 if U.shape[1] > 1 else 0] * trig.transversal_mask(m)
    averages = _lattice_values(G1[:, 0], G1[:, 1::2] - 1j * G1[:, 2::2],
                               trig.freqs[:, :m], max(trig.degree, 0), grid)
    tie = averages.min(axis=1) + TIE_RTOL * np.abs(G1).sum(axis=1)
    qmin = np.argmax(averages <= tie[:, None], axis=1)
    avg = averages[np.arange(len(U)), qmin]
    z = U[:, 0, 1::2] - 1j * U[:, 0, 2::2]
    variation = 2 * np.abs(z).sum(axis=1)
    if not trig.npairs:
        return qmin, avg, np.zeros(len(U)), variation
    x = np.stack(np.unravel_index(qmin, (grid,) * m), axis=1)
    w = 1j * z * np.exp(2j * np.pi * (x @ trig.freqs[:, :m].T % grid) / grid)
    # the signed lexicographic rank of k'': 0 for k'' = 0, < 0 when k'' is negative
    rank = trig.freqs[:, m:] @ (2 * trig.degree + 1) ** np.arange(cfg.ncoords - m)[::-1]
    w[:, rank < 0] = w[:, rank < 0].conj()
    W = _binned((w[:, None] * trig.freqs.T).reshape(-1, trig.npairs), np.abs(rank),
                np.abs(rank).max() + 1).reshape(len(U), cfg.ncoords, -1)
    grad = (np.abs(W[..., 0].real) + np.abs(W[..., 1:]).sum(axis=2)).max(axis=1)
    return qmin, avg, grad, variation


def closedness_symbols(cfg, trig, frame):
    """Closedness rows of every mode on the frame, (modes, N(N-1)/2 * n, m*n):
    k_alpha omega_beta - k_beta omega_alpha for alpha < beta and every
    component, the form symbol before the Hodge projector replaced it."""
    N, K = cfg.ncoords, trig.mode_freqs()
    alpha, beta = np.triu_indices(N, 1)
    eye = np.eye(N)
    closed = K[:, alpha, None] * eye[beta] - K[:, beta, None] * eye[alpha]
    return (closed @ frame.reshape(N, -1)).reshape(len(K), len(alpha) * cfg.n, -1)


def commutator_rows(cfg):
    """A-linearity rows on (coordinate, component) values, (m*(n-1)*n*n, N*n).

    For slot j and radical basis element e_a, the n x n matrix W with
    W[i, c] the value at (coordinate c*m + j, component i) must commute
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
        cols = (torus_coord(cfg, j, comp)[None, :] * n + comp[:, None]).reshape(-1)
        rows[j][..., cols] = comm
    return rows.reshape(-1, cfg.ncoords * n)


def commutant_complement(cfg):
    """I - V V^T on (coordinate, component) values, (N*n, N*n), for V the
    SVD nullspace of ``commutator_rows``: the projector off the A-linear
    values, built without the slot basis. The nullity must be m*n."""
    _, s, vh = np.linalg.svd(commutator_rows(cfg))
    keep = len(vh) - cfg.m * cfg.n
    assert s[keep - 1] > 1e-8 * s[0] and np.all(s[keep:] <= 1e-12 * s[0])
    return np.eye(len(vh)) - vh[keep:].T @ vh[keep:]


def commutator_symbols(cfg, trig):
    """The function symbols as the commutator rows times the differential,
    C (k tensor I_n), (modes, m(n-1)n^2, n): the A-linearity of the
    differential stated without an orthonormal basis of the A-linear maps."""
    D = np.kron(trig.mode_freqs()[:, :, None], np.eye(cfg.n))
    return commutator_rows(cfg) @ D


def function_differential_off_commutant(u, cfg, trig):
    """The differential of function coefficient rows (S, n*B) off the
    A-linear values, (S, N*n, B): ``commutant_complement`` applied to
    ``dense_function_differential`` on every trig index."""
    dG = dense_function_differential(u, cfg, trig).reshape(-1, cfg.ncoords * cfg.n, trig.size)
    return commutant_complement(cfg) @ dG


def rank_margin(stack, tol=DEFAULT_NULL_TOL):
    """The rank rule's decision data over a (modes, rows, cols) stack, from
    one SVD of every mode: (ref, s_kept, s_null, margin) with ref the largest
    singular value, s_kept the smallest one above tol * ref, s_null the
    largest one at or below it, and margin = min(s_kept / (tol ref),
    tol ref / s_null); a side with no value, or an exact zero, is infinitely
    far from the cut."""
    s = np.linalg.svd(stack, compute_uv=False)
    ref = float(s.max(initial=0.0))
    cut = tol * ref
    s_kept, s_null = float(s[s > cut].min(initial=np.inf)), float(s[s <= cut].max(initial=0.0))
    up = s_kept / cut if np.isfinite(s_kept) else np.inf
    return ref, s_kept, s_null, min(up, cut / s_null if s_null > 0 else np.inf)


# -- reference Taylor lift: each derivative re-built and each tree re-walked ------


def reference_diff(e, j, seen=None):
    """Exact symbolic partial derivative with respect to x<j>. ``seen`` serves
    one call: a subtree shared inside the tree is differentiated once."""
    seen = {} if seen is None else seen
    if e not in seen:
        seen[e] = _reference_diff(e, j, seen)
    return seen[e]


def _reference_diff(e, j, seen):
    if isinstance(e, ex.Const):
        return ex.Const(0.0)
    if isinstance(e, ex.Var):
        return ex.Const(1.0 if e.index == j else 0.0)
    if isinstance(e, ex.Add):
        return ex.add(reference_diff(e.left, j, seen),
                      reference_diff(e.right, j, seen))
    if isinstance(e, ex.Sub):
        return ex.sub(reference_diff(e.left, j, seen),
                      reference_diff(e.right, j, seen))
    if isinstance(e, ex.Mul):
        return ex.add(ex.mul(reference_diff(e.left, j, seen), e.right),
                      ex.mul(e.left, reference_diff(e.right, j, seen)))
    if isinstance(e, ex.Div):
        return ex.div(ex.sub(reference_diff(e.left, j, seen),
                             ex.mul(e, reference_diff(e.right, j, seen))), e.right)
    if isinstance(e, ex.IntPow):
        if e.exponent == 0:
            return ex.Const(0.0)
        return ex.mul(
            ex.mul(ex.Const(float(e.exponent)), ex.intpow(e.base, e.exponent - 1)),
            reference_diff(e.base, j, seen),
        )
    if isinstance(e, ex.Sin):
        return ex.mul(ex.Cos(e.arg), reference_diff(e.arg, j, seen))
    if isinstance(e, ex.Cos):
        return ex.mul(ex.Const(-1.0), ex.mul(ex.Sin(e.arg), reference_diff(e.arg, j, seen)))
    if isinstance(e, ex.Exp):
        return ex.mul(e, reference_diff(e.arg, j, seen))
    if isinstance(e, ex.Log):
        return ex.div(reference_diff(e.arg, j, seen), e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def reference_eval_real(e, point, seen=None):
    """Evaluate at a real point (sequence of length >= max variable index).
    ``seen`` serves one call: a subtree shared inside the tree is walked once."""
    seen = {} if seen is None else seen
    if e not in seen:
        seen[e] = _reference_eval_real(e, point, seen)
    return seen[e]


def _reference_eval_real(e, point, seen):
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return float(point[e.index - 1])
    if isinstance(e, ex.Add):
        return (reference_eval_real(e.left, point, seen)
                + reference_eval_real(e.right, point, seen))
    if isinstance(e, ex.Sub):
        return (reference_eval_real(e.left, point, seen)
                - reference_eval_real(e.right, point, seen))
    if isinstance(e, ex.Mul):
        return (reference_eval_real(e.left, point, seen)
                * reference_eval_real(e.right, point, seen))
    if isinstance(e, ex.Div):
        denom = reference_eval_real(e.right, point, seen)
        if denom == 0.0:
            raise DomainError("division by zero")
        return reference_eval_real(e.left, point, seen) / denom
    if isinstance(e, ex.IntPow):
        return reference_eval_real(e.base, point, seen) ** e.exponent
    if isinstance(e, ex.Sin):
        return math.sin(reference_eval_real(e.arg, point, seen))
    if isinstance(e, ex.Cos):
        return math.cos(reference_eval_real(e.arg, point, seen))
    if isinstance(e, ex.Exp):
        return math.exp(reference_eval_real(e.arg, point, seen))
    if isinstance(e, ex.Log):
        v = reference_eval_real(e.arg, point, seen)
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    raise TypeError(f"not an expression node: {e!r}")


def _radical_powers(A, r, kmax):
    powers = [A.unit()]
    for _ in range(kmax):
        powers.append(mul(A, powers[-1], r))
    return powers


def reference_taylor_lift(e, X, A, info):
    """Taylor-sum lift with exact symbolic derivatives, each derivative
    differentiated from its unsimplified parent and evaluated by its own tree
    walk, with no memo shared between derivatives; the terms are multiplied
    by ``mul`` and added one by one. Terms of total order >= nu vanish, so the
    sum stops at nu - 1."""
    m = len(X)
    nu = info.nu
    x = X[:, 0]
    # powers of the radical parts, slot by slot
    rad_powers = [
        _radical_powers(A, radical_part(X[j]), nu - 1) for j in range(m)
    ]

    out = A.zero()
    out[0] = reference_eval_real(e, x)

    derivs = {(0,) * m: e}
    for p in graded_multiindices(m, nu - 1):
        j = next(i for i, pi in enumerate(p) if pi > 0)
        parent = tuple(pi - (1 if i == j else 0) for i, pi in enumerate(p))
        dp = reference_diff(derivs[parent], j + 1)
        derivs[p] = dp
        coeff = reference_eval_real(dp, x)
        if coeff == 0.0:
            continue
        for pi in p:
            coeff /= math.factorial(pi)
        term = A.unit()
        for i, pi in enumerate(p):
            if pi:
                term = mul(A, term, rad_powers[i][pi])
        out = out + coeff * term
    return out


# -- reference standard basis: one SVD per candidate monomial, products by mul ------


def reference_radical_filtration(A):
    """Descending chain rad >= rad^2 >= ... >= 0 and the nilpotency index."""
    rad = radical_basis(A)
    scale = float(np.linalg.norm(A.C))
    chain = [rad]
    current = rad
    while current.shape[0] > 0:
        if len(chain) > A.n:
            return chain, None
        products = np.array(
            [mul(A, u, v) for u in current for v in rad]
        ).reshape(-1, A.n)
        nxt = linalg.orthonormal_rows(products, scale=scale)
        if nxt.shape[0] >= current.shape[0]:
            return chain, None
        chain.append(nxt)
        current = nxt
    return chain, len(chain)


def tensordot_radical_filtration(A, rad):
    """Descending chain rad >= rad^2 >= ... >= 0 and the nilpotency index (None
    for a chain that stalls), each power taken by ``np.tensordot`` of the
    previous power and the stacked maps x -> x * rad[v] of the whole radical
    basis, (n, r, n), ranked as ``algebra.standard_basis`` ranks its powers."""
    scale = float(linalg.norm(A.C))
    rad_maps = np.einsum("vj,ijk->ivk", rad, A.C)
    chain = [rad]
    while chain[-1].shape[0] > 0:
        products = np.tensordot(chain[-1], rad_maps, axes=1)  # (u, v, k)
        rank, vh = linalg._svd_rank(products.reshape(-1, A.n), linalg.RANK_TOL, scale)
        if rank >= chain[-1].shape[0]:
            return chain, None
        chain.append(vh[:rank])
    return chain, len(chain)


def reference_socle_basis(A):
    """Kernel of the stacked multiplication maps by a radical basis,
    intersected with the radical itself."""
    rad = radical_basis(A)
    if rad.shape[0] == 0:
        return np.zeros((0, A.n))
    stacked = [mult_matrix(A, e) for e in rad]
    stacked.append(np.eye(A.n) - rad.T @ rad)  # force membership in rad
    return linalg.nullspace_rows(np.vstack(stacked))


def reference_standard_basis(A):
    """Monomials scanned in graded lexicographic order, each kept whenever it
    raises the numerical rank of the kept span plus itself."""
    chain, nu = reference_radical_filtration(A)
    if nu is None:
        raise SpanFailure("radical is not nilpotent; input is not a local algebra")
    rad = chain[0]
    rad2 = chain[1] if len(chain) > 1 else np.zeros((0, A.n))
    if rad.shape[0] != A.n - 1:
        raise SpanFailure(
            f"radical dimension {rad.shape[0]} != n-1; input is not local"
        )

    # minimal generators: complement of rad^2 inside rad
    if rad2.shape[0]:
        residual = rad - (rad @ rad2.T) @ rad2
    else:
        residual = rad
    pseudo = linalg.orthonormal_rows(residual)
    r = pseudo.shape[0]

    selected = []
    exponents = []
    span = np.zeros((0, A.n))
    for exp in graded_multiindices(r, max(nu - 1, 1)):
        vec = A.unit()
        for t, power in enumerate(exp):
            for _ in range(power):
                vec = mul(A, vec, pseudo[t])
        trial = np.vstack([span, vec[None, :]])
        trial_basis = linalg.orthonormal_rows(trial)
        if trial_basis.shape[0] > span.shape[0]:
            selected.append(vec)
            exponents.append(exp)
            span = trial_basis
            if len(selected) == A.n - 1:
                break
    if len(selected) != A.n - 1:
        raise SpanFailure("pseudobasis monomials do not span the radical")

    P = np.column_stack([A.unit()] + selected)
    monomial = {k + 1: exponents[k] for k in range(A.n - 1)}
    pseudobasis = tuple(range(1, r + 1))

    socle = []
    for k, vec in enumerate(selected, start=1):
        worst = 0.0
        for t in range(r):
            prod = mul(A, vec, pseudo[t])
            worst = max(worst, float(np.abs(prod).max()))
        if worst <= linalg.RANK_TOL * (1.0 + float(np.linalg.norm(vec))):
            socle.append(k)
    if len(socle) != reference_socle_basis(A).shape[0]:
        raise SpanFailure("standard basis monomials do not span the socle")

    return StandardBasisInfo(
        P=P,
        pseudobasis=pseudobasis,
        monomial=monomial,
        socle=tuple(socle),
        nu=nu,
        radical=rad,
        filtration_dims=tuple(c.shape[0] for c in chain),
    )


def reference_standardize_tensor(A, info):
    """The standard-basis structure tensor by the naive four-operand einsum."""
    Pinv = np.linalg.inv(info.P)
    return np.einsum("si,tj,stu,ku->ijk", info.P, info.P, A.C, Pinv)


def einsum_standardize(A, rad):
    """``algebra.standardize`` with the change of basis as one four-operand
    einsum on the fixed path: over s, then t, then u."""
    info = algebra.standard_basis(A, rad)
    C = np.einsum("si,tj,stu,ku->ijk", info.P, info.P, A.C, np.linalg.inv(info.P),
                  optimize=["einsum_path", (0, 2), (0, 2), (0, 1)])
    return StructureConstants(A.n, algebra._default_labels(A.n), C), info


def socle_basis(A, rad):
    """Orthonormal basis (rows) of {x in rad : x * rad = 0}, by the rule of
    ``algebra.socle_dim``: the kernel of the stacked maps y -> (y @ rad) * e
    in radical coordinates, each column divided by its term size."""
    if rad.shape[0] == 0:
        return np.zeros((0, A.n))
    r, n = rad.shape
    products, terms = (R @ (R @ C.reshape(n, -1)).reshape(r, n, n)
                       for R, C in ((rad, A.C), (abs(rad), abs(A.C))))
    size = linalg.norm(terms.reshape(r, -1), axis=1)
    size[size == 0.0] = 1.0
    rank, vh = linalg._svd_rank(products.reshape(r, -1).T / size, linalg.RANK_TOL, 1.0)
    return linalg.canonical_signs(np.linalg.qr(((vh[rank:] / size) @ rad).T)[0].T)


def standardize_corpus():
    """Algebras the standardize step is pinned on, by name: the presets and
    the staircases, each also in two random bases of either kind; the
    ``--spec`` files of the benchmark's spec_algebras and known_failures
    passes, seeds 1-5; and R[x, y]/(x^2, xy, y^3) in 20 random bases (q4).
    Built once per process; each call returns a new dict of the same tables."""
    return dict(_standardize_corpus())


@functools.cache
def _standardize_corpus():
    out = {name: algebra.preset(name) for name in ["dual"]
           + [f"trunc:{k}" for k in range(1, 10)] + [f"square:{r}" for r in range(1, 5)]}
    out.update({f"staircase{i}": A for i, A in enumerate(staircase_quotients())})
    out.update({f"{name}-{kind}{seed}": change(A, seed)
                for name, A in list(out.items()) if A.n > 1 for seed in range(2)
                for kind, change in (("changed", changed_radical_basis),
                                     ("shifted", shifted_unit_basis))})
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # a dataclass module must be in sys.modules
    for workload in ("spec_algebras", "known_failures"):
        for seed in range(1, 6):
            for name, text in workloads.generate(workload, seed, Path("."))[1].items():
                try:
                    out[f"{workload}{seed}/{name}"] = algebra.from_spec(text)
                except AlgebraFormatError:
                    pass  # the malformed-input files
    q4 = monomial_quotient([(0, 0), (1, 0), (0, 1), (0, 2)])
    out.update({f"q4-{seed}": changed_radical_basis(q4, seed) for seed in range(20)})
    return out


def to_text(e: ex.Expr) -> str:
    """Render an expression; fully parenthesized so parsing round-trips."""
    if isinstance(e, ex.Const):
        return f"({e.value!r})" if e.value < 0 else repr(e.value)
    if isinstance(e, ex.Var):
        return f"x{e.index}"
    if isinstance(e, ex.Add):
        return f"({to_text(e.left)} + {to_text(e.right)})"
    if isinstance(e, ex.Sub):
        return f"({to_text(e.left)} - {to_text(e.right)})"
    if isinstance(e, ex.Mul):
        return f"({to_text(e.left)} * {to_text(e.right)})"
    if isinstance(e, ex.Div):
        return f"({to_text(e.left)} / {to_text(e.right)})"
    if isinstance(e, ex.IntPow):
        base = to_text(e.base)
        if isinstance(e.base, ex.IntPow):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    for name, cls in ex.FUNCTIONS.items():
        if isinstance(e, cls):
            return f"{name}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")
