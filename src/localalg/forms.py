"""A-valued 1-forms with trigonometric coefficients on the torus models.

A 1-form is a table of N = n*m algebra-valued coefficient functions, one
per angular coordinate, each stored as (component, trig index) coefficients.
A form is A-linear when on every slot j its n x n value matrix commutes with
every L_a. For commutative unital A those matrices are exactly the L_b (the
A-module maps x -> x * b, b the image of 1), so the unknowns are coordinates
on the frame of ``commutant_frame``, the Q of ``TorusConfig.slot_basis`` on
each slot (m*n columns). The symbol S(k) on the mode of frequency k is
(|k| I - k k^T / |k|) (x) I_n F, N*n rows: S^T S = F^T (Z^T Z (x) I_n) F for
the closedness rows Z(k) of d(omega) = 0 (d*d + dd* = |k|^2 on 1-forms), so
S has their singular values and nullspace, and S(0) = 0.

On top of the solution space this module measures the dimensions of the
non-socle component spaces (which stay bounded by n*N, the dimension of the
algebra tensored with the first de Rham cohomology of the torus), checks the
degree-zero counterpart (non-socle components of differentiable functions
are constants), and checks that a closed solution with zero mean
coefficients is exactly a differential of a function-space solution (the
class map to constant coefficients is injective within the ansatz).
``cohomology_report`` runs all of it and returns the Report of CHECK lines
and machine keys, as the suites of ``torus`` do.

All of it runs one trig index at a time, on the ``solution_rows`` of
``solve_nullspace``: each row is one trig index and one vector of length
unknowns. A matrix of such rows is block diagonal up to a permutation of
rows and columns, one block per index, and its singular values are the union
of its blocks'. So ``linalg.rank`` of the zero-padded (indices, rows, cols)
stack of blocks, which takes ``ref`` over the whole stack, makes the dense
matrix's rank decision by the same rule. d/d(theta) keeps a function row in
its pair: v on the cos index maps to -k (x) v on the sin index, v on the sin
index to k (x) v on the cos index, and index 0 to 0. A row off index 0 has
zero mean, and the index-0 rows are constants that are orthonormal, so no
combination of them has zero mean: the zero-mean solutions are exactly the
rows off index 0. The span of the dG is the orthogonal sum of its parts on
each index, so the injectivity fit is one small least-squares per index.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import IndexNotBreve
from .report import Report
from .torus import (
    ConstraintSystem,
    DEFAULT_CAP,
    DEFAULT_NULL_TOL,
    TorusConfig,
    TrigSpace,
    assemble_function_constraints,
    capped_trig_space,
    solution_rows,
    solve_nullspace,
)

INJECTIVITY_TOL = 1e-9  # largest residual of a zero-mean solution off the differentials


def commutant_frame(cfg: TorusConfig) -> np.ndarray:
    """Orthonormal frame (N*n, m*n) of the A-linear 1-form values: column
    (j, b) is Q[(c, i), b] at (coordinate c*m + j, component i). Columns of
    different slots have disjoint support, so they need no QR."""
    n, m = cfg.n, cfg.m
    Q = cfg.slot_basis[:, :n].reshape(n, n, n)
    return np.einsum("cib,jk->cjikb", Q, np.eye(m)).reshape(cfg.ncoords * n, m * n)


def assemble_form_constraints(cfg: TorusConfig, degree: int,
                              cap: int = DEFAULT_CAP) -> ConstraintSystem:
    """Closedness of 1-form coefficients, columns (coordinate, component,
    trig index), with symbols (|k| I - k k^T / |k|) (x) I_n F on the frame F."""
    n, N = cfg.n, cfg.ncoords
    trig = capped_trig_space(cfg, degree, N * n, cap)
    K = trig.mode_freqs()
    norm = np.sqrt(np.einsum("pa,pa->p", K, K))[:, None, None]  # >= 1 unless k = 0
    proj = norm * np.eye(N) - K[:, :, None] * K[:, None, :] / np.maximum(norm, 1.0)
    frame = commutant_frame(cfg)
    symbols = (proj @ frame.reshape(N, -1)).reshape(len(K), N * n, -1)
    return ConstraintSystem(trig, symbols, frame)


def _blocks(index: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The matrix with row r vecs[r] on trig index index[r] as the
    (indices, rows, cols) stack of its blocks, the rows of each index
    zero-padded; ``linalg.rank`` of the stack is the matrix's rank."""
    order = np.argsort(index, kind="stable")
    _, block, counts = np.unique(index[order], return_inverse=True, return_counts=True)
    stack = np.zeros((len(counts), counts.max(initial=0), vecs.shape[1]))
    stack[block, np.arange(len(block)) - (np.cumsum(counts) - counts)[block]] = vecs[order]
    return stack


def function_differential(rows: np.ndarray, trig: TrigSpace) -> np.ndarray:
    """``solution_rows`` of the dG of function rows, with (coordinate,
    component) vectors of length N*n: v on the cos index of a pair of
    frequency k maps to -k (x) v on its sin index, v on the sin index to
    k (x) v on the cos index, and v on index 0 to the zero vector there."""
    index = rows["index"]
    cos = index % 2 == 1
    k = trig.mode_freqs()[(index + 1) // 2] * np.where(cos, -1.0, 1.0)[:, None]
    dG = k[:, :, None] * rows["vec"][:, None, :]
    partner = np.where(cos, index + 1, np.maximum(index - 1, 0))
    return solution_rows(partner, dG.reshape(len(dG), dG.shape[1] * dG.shape[2]))


def component_space_dim(rows: np.ndarray, j0: int, cfg: TorusConfig,
                        tol: float = DEFAULT_NULL_TOL) -> int:
    """Dimension of the space of j0-components over the closed solutions,
    given as ``solution_rows``.

    ``j0`` must index a non-socle radical element of the standard basis.
    """
    if j0 <= 0 or j0 >= cfg.n or j0 in cfg.info.socle:
        raise IndexNotBreve(f"index {j0} is not a non-socle radical index")
    components = rows["vec"].reshape(len(rows), cfg.ncoords, cfg.n)[:, :, j0]
    return linalg.rank(_blocks(rows["index"], components), tol)


def verify_class_injectivity(form_rows: np.ndarray, dG: np.ndarray) -> tuple[float, int]:
    """Worst distance from a zero-mean closed solution to the span of the
    differentials ``dG``, plus the dimension of the zero-mean subspace; both
    as ``solution_rows``. The index-0 rows are orthonormal constants, so the
    zero-mean solutions are the rows off index 0. The span is the orthogonal
    sum of its parts on each trig index, so the fit is one least-squares per
    index."""
    zm = form_rows[form_rows["index"] != 0]
    residuals = [0.0]
    for b in np.unique(zm["index"]):
        basis, target = dG["vec"][dG["index"] == b].T, zm["vec"][zm["index"] == b].T
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        residuals.extend(np.linalg.norm(basis @ coef - target, axis=0))
    return float(max(residuals)), len(zm)


def cohomology_report(cfg: TorusConfig, degree: int,
                      null_tol: float = DEFAULT_NULL_TOL,
                      cap: int = DEFAULT_CAP) -> Report:
    """Assemble and solve both systems, measure all dimension bounds and
    report them as CHECK lines plus machine keys."""
    form_sys = assemble_form_constraints(cfg, degree, cap)
    trig = form_sys.trig
    form = solve_nullspace(form_sys, null_tol)
    fn = solve_nullspace(assemble_function_constraints(cfg, degree, cap), null_tol)
    labels, breve = cfg.algebra.labels, cfg.info.breve_indices()

    component_dims = {j0: component_space_dim(form, j0, cfg, null_tol) for j0 in breve}
    # degree-0 counterpart: non-socle components of functions are constants
    degree0_dims = {j0: linalg.rank(_blocks(fn["index"], fn["vec"][:, j0:j0 + 1]), null_tol)
                    for j0 in breve}
    # functions with vanishing differential inside the ansatz
    dG = function_differential(fn, trig)
    h0 = len(fn) - linalg.rank(_blocks(dG["index"], dG["vec"]), null_tol)
    residual, zm_dim = verify_class_injectivity(form, dG)

    bound, zm_expected = cfg.n * cfg.ncoords, cfg.basic_socle_dim(degree)
    form_expected = zm_expected + cfg.n * cfg.m
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
    rep.add("h0_constants_only", h0 == cfg.n, h0)
    rep.add("form_dims_theorem", (len(form), zm_dim) == (form_expected, zm_expected),
            f"{len(form)},{zm_dim}")
    rep.put("FORM_NULLSPACE_DIM", len(form))
    rep.put("EXPECTED_FORM_NULLSPACE_DIM", form_expected)
    rep.data.update((f"DIM_ZBREVE[{labels[j0]}]", d) for j0, d in component_dims.items())
    rep.put("BOUND", bound)
    rep.data.update((f"DEGREE0_DIM[{labels[j0]}]", d) for j0, d in degree0_dims.items())
    rep.data.update(H0_DIM=h0, ZERO_MEAN_DIM=zm_dim, EXPECTED_ZERO_MEAN_DIM=zm_expected,
                    INJECTIVITY_RESIDUAL=residual)
    return rep
