"""A-valued 1-forms with trigonometric coefficients on the torus models.

A 1-form is a table of N = n*m algebra-valued coefficient functions, one
per angular coordinate, each stored as (component, trig index) coefficients.
A form is A-linear when on every slot j its n x n value matrix commutes with
every L_a. For commutative unital A those matrices are exactly the L_b (the
A-module maps x -> x * b, b the image of 1), so the unknowns are coordinates
on the orthonormal frame of ``commutant_frame`` (L_b on slot j, m*n
columns), and the symbol S(k) on the mode of frequency k (see ``torus``)
holds only the closedness rows of d(omega) = 0 on that frame,
k_alpha omega_beta - k_beta omega_alpha for alpha < beta and every component.

On top of the solution space this module measures the dimensions of the
non-socle component spaces (which stay bounded by n*N, the dimension of the
algebra tensored with the first de Rham cohomology of the torus), checks the
degree-zero counterpart (non-socle components of differentiable functions
are constants), and checks that a closed solution with zero mean
coefficients is exactly a differential of a function-space solution (the
class map to constant coefficients is injective within the ansatz).
``cohomology_report`` runs all of it and returns the Report of CHECK lines
and machine keys, as the suites of ``torus`` do.
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
    solve_nullspace,
)

INJECTIVITY_TOL = 1e-9  # largest residual of a zero-mean solution off the differentials


def commutant_frame(cfg: TorusConfig) -> np.ndarray:
    """Orthonormal frame (N*n, m*n) of the A-linear 1-form values: column
    (j, b) is L_b[i, c] at (coordinate coord(j, c), component i), then QR."""
    n, m = cfg.n, cfg.m
    blocks = np.einsum("bic,jk->cjikb", cfg.mults, np.eye(m))
    return np.linalg.qr(blocks.reshape(cfg.ncoords * n, m * n))[0]


def assemble_form_constraints(cfg: TorusConfig, degree: int,
                              cap: int = DEFAULT_CAP) -> ConstraintSystem:
    """Closedness of 1-form coefficients, columns (coordinate, component,
    trig index), with symbols (closedness tensor I_n) F on the frame F."""
    n, N = cfg.n, cfg.ncoords
    trig = capped_trig_space(cfg, degree, N * n, cap)
    K = trig.mode_freqs()
    alpha, beta = np.triu_indices(N, 1)
    eye = np.eye(N)
    closed = K[:, alpha, None] * eye[beta] - K[:, beta, None] * eye[alpha]
    frame = commutant_frame(cfg)
    symbols = (closed @ frame.reshape(N, -1)).reshape(len(K), len(alpha) * n, -1)
    return ConstraintSystem(trig, symbols, frame)


def function_differential(u: np.ndarray, cfg: TorusConfig,
                          trig: TrigSpace) -> np.ndarray:
    """Coefficients of dG, flat (N*n*B,), for a function coefficient vector
    (n*B,), or one row per function for an (S, n*B) stack."""
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, cfg.n, trig.size)
    dG = np.stack([trig.derivative(U, axis) for axis in range(cfg.ncoords)], axis=1)
    return dG.reshape(u.shape[:-1] + (cfg.ncoords * u.shape[-1],))


def component_space_dim(solutions: np.ndarray, j0: int, cfg: TorusConfig,
                        trig: TrigSpace, tol: float = DEFAULT_NULL_TOL) -> int:
    """Dimension of the space of j0-components over the closed solutions.

    ``j0`` must index a non-socle radical element of the standard basis.
    """
    if j0 <= 0 or j0 >= cfg.n or j0 in cfg.info.socle:
        raise IndexNotBreve(f"index {j0} is not a non-socle radical index")
    components = solutions.reshape(len(solutions), cfg.ncoords, cfg.n, trig.size)[:, :, j0]
    return linalg.rank(components.reshape(len(solutions), cfg.ncoords * trig.size), tol)


def zero_mean_combinations(solutions: np.ndarray, cfg: TorusConfig,
                           trig: TrigSpace) -> np.ndarray:
    """Rows spanning the solutions whose constant Fourier coefficients vanish."""
    means = solutions[:, ::trig.size]  # trig index 0 of every (coordinate, component)
    combos = linalg.nullspace_rows(means.T, DEFAULT_NULL_TOL)
    return combos @ solutions


def verify_class_injectivity(form_solutions: np.ndarray, differentials: np.ndarray,
                             cfg: TorusConfig, trig: TrigSpace) -> tuple[float, int]:
    """Worst distance from a zero-mean closed solution to the span of the dG
    in ``differentials``, plus the dimension of the zero-mean subspace.

    The least-squares fit runs on the columns where either side is nonzero;
    the other columns add exactly 0 to every residual.
    """
    zm = zero_mean_combinations(form_solutions, cfg, trig)
    support = differentials.any(axis=0) | zm.any(axis=0)
    basis, zm = differentials[:, support], zm[:, support]
    coef, *_ = np.linalg.lstsq(basis.T, zm.T, rcond=None)
    residual = np.linalg.norm(basis.T @ coef - zm.T, axis=0)
    return float(residual.max(initial=0.0)), zm.shape[0]


def cohomology_report(cfg: TorusConfig, degree: int,
                      null_tol: float = DEFAULT_NULL_TOL,
                      cap: int = DEFAULT_CAP) -> Report:
    """Assemble and solve both systems, measure all dimension bounds and
    report them as CHECK lines plus machine keys."""
    form_sys = assemble_form_constraints(cfg, degree, cap)
    trig = form_sys.trig
    form_sol = solve_nullspace(form_sys, null_tol)
    fn_sys = assemble_function_constraints(cfg, degree, cap)
    fn_sol = solve_nullspace(fn_sys, null_tol)
    labels, breve, B = cfg.algebra.labels, cfg.info.breve_indices(), trig.size

    component_dims = {j0: component_space_dim(form_sol, j0, cfg, trig, null_tol)
                      for j0 in breve}
    # degree-0 counterpart: non-socle components of functions are constants
    degree0_dims = {j0: linalg.rank(fn_sol[:, j0 * B:(j0 + 1) * B], null_tol)
                    for j0 in breve}
    # functions with vanishing differential inside the ansatz
    dG = function_differential(fn_sol, cfg, trig)
    h0 = fn_sol.shape[0] - linalg.rank(dG, null_tol)
    residual, zm_dim = verify_class_injectivity(form_sol, dG, cfg, trig)

    bound = cfg.n * cfg.ncoords
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
    rep.put("FORM_NULLSPACE_DIM", len(form_sol))
    rep.data.update((f"DIM_ZBREVE[{labels[j0]}]", d) for j0, d in component_dims.items())
    rep.put("BOUND", bound)
    rep.data.update((f"DEGREE0_DIM[{labels[j0]}]", d) for j0, d in degree0_dims.items())
    rep.data.update(H0_DIM=h0, ZERO_MEAN_DIM=zm_dim, INJECTIVITY_RESIDUAL=residual)
    return rep
