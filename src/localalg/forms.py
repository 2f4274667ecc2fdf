"""A-valued 1-forms with trigonometric coefficients on the torus models.

A 1-form is a table of N = n*m algebra-valued coefficient functions, one
per angular coordinate, each stored as (component, trig index) coefficients.
The closed A-linear forms are the kernel of a constraint system whose
symbol S(k) on the mode of frequency k (see ``torus``) stacks

  (i) A-linearity: for every slot j, the n x n matrix of values of the form
      on the coordinate directions of that slot commutes with every basis
      multiplication operator. These are the rows C of
      ``torus.commutator_rows``; they involve no derivative, so they are the
      same on every mode;
 (ii) closedness: d(omega) = 0, the rows k_alpha omega_beta - k_beta
      omega_alpha for every alpha < beta and component (A-linearity of
      d(omega) is then automatic).

On top of the solution space this module measures the dimensions of the
non-socle component spaces (which stay bounded by n*N, the dimension of the
algebra tensored with the first de Rham cohomology of the torus), checks the
degree-zero counterpart (non-socle components of differentiable functions
are constants), and checks that a closed solution with zero mean
coefficients is exactly a differential of a function-space solution (the
class map to constant coefficients is injective within the ansatz).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    commutator_rows,
    solve_nullspace,
)


def exterior_derivative(omega: np.ndarray, trig: TrigSpace) -> dict:
    """Coefficient table of d(omega) for omega of shape (N, n, B).

    Returns {(alpha, beta): (n, B)} for alpha < beta with
    d(omega)_{alpha beta} = d_alpha omega_beta - d_beta omega_alpha.
    """
    omega = np.asarray(omega, dtype=float)
    N = omega.shape[0]
    return {
        (alpha, beta): trig.derivative(omega[beta], alpha)
        - trig.derivative(omega[alpha], beta)
        for alpha in range(N) for beta in range(alpha + 1, N)
    }


def assemble_form_constraints(cfg: TorusConfig, degree: int,
                              cap: int = DEFAULT_CAP) -> ConstraintSystem:
    """Stacked A-linearity and closedness constraints on 1-form coefficients.

    Unknowns are indexed (coordinate, component): the coordinate slot of the
    form, then the algebra component of its coefficient.
    """
    n, N = cfg.n, cfg.ncoords
    trig = capped_trig_space(cfg, degree, N * n, cap)
    K = trig.mode_freqs()
    alpha, beta = np.triu_indices(N, 1)
    eye = np.eye(N)
    closed = K[:, alpha, None] * eye[beta] - K[:, beta, None] * eye[alpha]
    C = commutator_rows(cfg)
    linear = np.broadcast_to(C, (K.shape[0],) + C.shape)
    symbols = np.concatenate([linear, np.kron(closed, np.eye(n))], axis=1)
    return ConstraintSystem(trig, symbols)


def function_differential(u: np.ndarray, cfg: TorusConfig,
                          trig: TrigSpace) -> np.ndarray:
    """Coefficients of dG for a function coefficient vector (flat, length N*n*B)."""
    U = np.asarray(u, dtype=float).reshape(cfg.n, trig.size)
    return np.stack([trig.derivative(U, axis) for axis in range(cfg.ncoords)]).ravel()


def component_form(solution: np.ndarray, j0: int, cfg: TorusConfig,
                   trig: TrigSpace) -> np.ndarray:
    """The real 1-form carried by standard component j0, flat (N*B,)."""
    N, n = cfg.ncoords, cfg.n
    B = trig.size
    return np.asarray(solution, dtype=float).reshape(N, n, B)[:, j0, :].reshape(-1)


def component_space_dim(solutions: np.ndarray, j0: int, cfg: TorusConfig,
                        trig: TrigSpace, tol: float = DEFAULT_NULL_TOL) -> int:
    """Dimension of the space of j0-components over the closed solutions.

    ``j0`` must index a non-socle radical element of the standard basis.
    """
    if j0 <= 0 or j0 >= cfg.n or j0 in cfg.info.socle:
        raise IndexNotBreve(f"index {j0} is not a non-socle radical index")
    solutions = np.atleast_2d(solutions)
    if solutions.shape[0] == 0:
        return 0
    stacked = np.vstack([component_form(s, j0, cfg, trig) for s in solutions])
    return linalg.rank(stacked, tol)


def zero_mean_combinations(solutions: np.ndarray, cfg: TorusConfig,
                           trig: TrigSpace,
                           tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Rows spanning the solutions whose constant Fourier coefficients vanish."""
    solutions = np.atleast_2d(solutions)
    if solutions.shape[0] == 0:
        return solutions
    B = trig.size
    mean_cols = [(f * cfg.n + i) * B for f in range(cfg.ncoords) for i in range(cfg.n)]
    means = solutions[:, mean_cols]
    combos = linalg.nullspace_rows(means.T, tol)
    return combos @ solutions


@dataclass
class CohomologyReport:
    """Dimension measurements for closed A-linear 1-forms at a fixed degree."""

    degree: int
    dim_solutions: int
    component_dims: dict[int, int]
    bound: int
    degree0_dims: dict[int, int]
    h0_dim: int
    zero_mean_dim: int
    injectivity_residual: float
    injective: bool

    @property
    def bounds_hold(self) -> bool:
        return all(d <= self.bound for d in self.component_dims.values())


def verify_class_injectivity(form_solutions: np.ndarray,
                             function_solutions: np.ndarray,
                             cfg: TorusConfig, trig: TrigSpace,
                             tol: float = DEFAULT_NULL_TOL) -> tuple[float, int]:
    """Worst distance from a zero-mean closed solution to an exact
    differential, plus the dimension of the zero-mean subspace."""
    zm = zero_mean_combinations(form_solutions, cfg, trig)
    if zm.shape[0] == 0:
        return 0.0, 0
    function_solutions = np.atleast_2d(function_solutions)
    if function_solutions.shape[0]:
        basis = np.vstack(
            [function_differential(u, cfg, trig) for u in function_solutions]
        )
    else:
        basis = np.zeros((0, zm.shape[1]))
    worst = 0.0
    for vec in zm:
        if basis.shape[0]:
            coef, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
            residual = float(np.linalg.norm(basis.T @ coef - vec))
        else:
            residual = float(np.linalg.norm(vec))
        worst = max(worst, residual)
    return worst, zm.shape[0]


def cohomology_report(cfg: TorusConfig, degree: int,
                      null_tol: float = DEFAULT_NULL_TOL,
                      cap: int = DEFAULT_CAP,
                      injectivity_tol: float = 1e-9) -> CohomologyReport:
    """Assemble and solve both systems and measure all dimension bounds."""
    n, N = cfg.n, cfg.ncoords
    form_sys = assemble_form_constraints(cfg, degree, cap)
    trig = form_sys.trig
    form_sol = solve_nullspace(form_sys, null_tol)
    fn_sys = assemble_function_constraints(cfg, degree, cap)
    fn_sol = solve_nullspace(fn_sys, null_tol)

    breve = cfg.info.breve_indices()
    component_dims = {
        j0: component_space_dim(form_sol, j0, cfg, trig, null_tol) for j0 in breve
    }

    # degree-0 counterpart: non-socle components of functions are constants
    B = trig.size
    degree0_dims = {}
    for j0 in breve:
        comps = np.atleast_2d(fn_sol)[:, j0 * B:(j0 + 1) * B]
        degree0_dims[j0] = linalg.rank(comps, null_tol) if comps.size else 0

    # functions with vanishing differential inside the ansatz
    if np.atleast_2d(fn_sol).shape[0]:
        diffs = np.vstack(
            [function_differential(u, cfg, trig) for u in np.atleast_2d(fn_sol)]
        )
        h0 = np.atleast_2d(fn_sol).shape[0] - linalg.rank(diffs, null_tol)
    else:
        h0 = 0

    residual, zm_dim = verify_class_injectivity(form_sol, fn_sol, cfg, trig, null_tol)

    return CohomologyReport(
        degree=degree,
        dim_solutions=int(np.atleast_2d(form_sol).shape[0]),
        component_dims=component_dims,
        bound=n * N,
        degree0_dims=degree0_dims,
        h0_dim=int(h0),
        zero_mean_dim=zm_dim,
        injectivity_residual=residual,
        injective=residual <= injectivity_tol,
    )


def forms_report(cfg: TorusConfig, summary: CohomologyReport,
                 tol: float = 1e-9) -> Report:
    """Render a cohomology summary as CHECK lines plus machine keys."""
    rep = Report()
    labels = cfg.algebra.labels
    if summary.component_dims:
        worst = max(summary.component_dims.values())
        rep.add("component_dim_bound", summary.bounds_hold, worst)
        ok0 = all(d == 1 for d in summary.degree0_dims.values())
        rep.add("degree0_components_constant", ok0,
                max(summary.degree0_dims.values()))
    else:
        rep.add("component_dim_bound", True, "vacuous")
        rep.put("NOTE", "no non-socle radical components; component check is vacuous")
    rep.add("class_map_injective", summary.injective, summary.injectivity_residual)
    rep.add("h0_constants_only", summary.h0_dim == cfg.n, summary.h0_dim)
    rep.put("FORM_NULLSPACE_DIM", summary.dim_solutions)
    for j0, dim in summary.component_dims.items():
        rep.put(f"DIM_ZBREVE[{labels[j0]}]", dim)
    rep.put("BOUND", summary.bound)
    for j0, dim in summary.degree0_dims.items():
        rep.put(f"DEGREE0_DIM[{labels[j0]}]", dim)
    rep.put("H0_DIM", summary.h0_dim)
    rep.put("ZERO_MEAN_DIM", summary.zero_mean_dim)
    rep.put("INJECTIVITY_RESIDUAL", summary.injectivity_residual)
    return rep
