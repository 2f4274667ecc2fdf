"""Closed A-linear 1-forms: exterior derivative, dimensions, injectivity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg.errors import IndexNotBreve
from localalg.forms import (
    assemble_form_constraints,
    cohomology_report,
    component_form,
    component_space_dim,
    exterior_derivative,
    forms_report,
    function_differential,
    verify_class_injectivity,
    zero_mean_combinations,
)
from localalg.linalg import nullspace_rows
from localalg.torus import (
    TrigSpace,
    assemble_function_constraints,
    make_torus,
    solve_nullspace,
)

from util import dense_form_constraints


def test_exterior_derivative_constant_form_is_closed():
    trig = TrigSpace.build(2, 1)
    omega = np.zeros((2, 1, trig.size))
    omega[0, 0, 0] = 1.0  # constant coefficient on d theta^1
    d = exterior_derivative(omega, trig)
    assert_allclose(d[(0, 1)], 0.0)


def test_exterior_derivative_single_product_rule():
    # omega = cos(theta^2) d theta^1  ->  (d omega)_{12} = sin(theta^2)
    trig = TrigSpace.build(2, 1)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (0, 1))
    omega = np.zeros((2, 1, trig.size))
    omega[0, 0, 1 + 2 * pair] = 1.0
    d = exterior_derivative(omega, trig)
    expected = np.zeros(trig.size)
    expected[2 + 2 * pair] = 1.0  # sin(theta^2)
    assert_allclose(d[(0, 1)][0], expected)


def test_d_of_d_vanishes_exactly():
    cfg = make_torus("trunc:3", 1)
    trig = cfg.trig_space(1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(cfg.n * trig.size)
        dG = function_differential(u, cfg, trig).reshape(
            cfg.ncoords, cfg.n, trig.size
        )
        dd = exterior_derivative(dG, trig)
        for block in dd.values():
            assert_allclose(block, 0.0, atol=1e-10)


def test_constant_forms_dual():
    # nullspace at degree 0 consists of W * dX, W in A: dimension 2
    cfg = make_torus("dual", 1)
    system = assemble_form_constraints(cfg, 0)
    solutions = solve_nullspace(system)
    assert solutions.shape[0] == 2
    dense = nullspace_rows(dense_form_constraints(cfg, system.trig), 1e-8)
    assert dense.shape[0] == 2


@pytest.mark.parametrize("name,d,expected,dense_oracle", [
    ("dual", 0, 2, True),
    ("dual", 1, 4, True),      # w0 constant, w1 free transversal trig poly
    ("trunc:3", 1, 5, True),   # w0, w1 constant, w2 free
    ("trunc:4", 1, 6, False),  # dense SVD too large to repeat here
])
def test_form_nullspace_dims(name, d, expected, dense_oracle):
    cfg = make_torus(name, 1)
    system = assemble_form_constraints(cfg, d)
    solutions = solve_nullspace(system)
    assert solutions.shape[0] == expected
    if dense_oracle:
        dense = nullspace_rows(dense_form_constraints(cfg, system.trig), 1e-8)
        assert dense.shape[0] == expected
        proj = (dense @ solutions.T) @ solutions
        assert np.abs(proj - dense).max() <= 1e-9


def test_trunc3_breve_components_are_constant():
    cfg = make_torus("trunc:3", 1)
    system = assemble_form_constraints(cfg, 1)
    trig = system.trig
    for u in solve_nullspace(system):
        comp = component_form(u, 1, cfg, trig).reshape(cfg.ncoords, trig.size)
        assert np.abs(comp[:, 1:]).max() <= 1e-12  # no non-constant support


def test_injected_form_violates_a_linearity():
    # omega = cos(theta^{1,1}) d theta^{1,0} is not A-linear
    cfg = make_torus("dual", 1)
    system = assemble_form_constraints(cfg, 1)
    trig = system.trig
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (0, 1))
    bad = np.zeros(system.ncols)
    bad[0 * cfg.n * trig.size + 0 * trig.size + 1 + 2 * pair] = 1.0
    assert system.residual_inf(bad) >= 0.5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_component_dim_trunc3_stable_in_degree(d):
    cfg = make_torus("trunc:3", 1)
    system = assemble_form_constraints(cfg, d)
    solutions = solve_nullspace(system)
    assert component_space_dim(solutions, 1, cfg, system.trig) == 2


def test_component_dim_rejects_non_breve_indices():
    cfg = make_torus("dual", 1)
    system = assemble_form_constraints(cfg, 1)
    solutions = solve_nullspace(system)
    with pytest.raises(IndexNotBreve):
        component_space_dim(solutions, 1, cfg, system.trig)  # socle index
    with pytest.raises(IndexNotBreve):
        component_space_dim(solutions, 0, cfg, system.trig)  # unit


def test_component_dim_empty_solutions():
    cfg = make_torus("trunc:3", 1)
    trig = cfg.trig_space(1)
    empty = np.zeros((0, cfg.ncoords * cfg.n * trig.size))
    assert component_space_dim(empty, 1, cfg, trig) == 0


def test_dims_within_bound():
    rep = cohomology_report(make_torus("trunc:3", 1), 2)
    assert rep.component_dims == {1: 2}
    assert rep.bound == 9
    assert rep.bounds_hold

    rep4 = cohomology_report(make_torus("trunc:4", 1), 1)
    assert rep4.bound == 16
    assert set(rep4.component_dims) == {1, 2}
    assert all(dim <= 16 for dim in rep4.component_dims.values())


def test_degree0_components_are_constants():
    for name in ("trunc:3", "trunc:4"):
        rep = cohomology_report(make_torus(name, 1), 1)
        assert all(dim == 1 for dim in rep.degree0_dims.values()), name


def test_h0_is_constants():
    for name, d in [("dual", 1), ("trunc:3", 1), ("square:2", 1)]:
        cfg = make_torus(name, 1)
        rep = cohomology_report(cfg, d)
        assert rep.h0_dim == cfg.n


def test_zero_mean_solutions_are_differentials():
    for name, d in [("dual", 2), ("trunc:3", 1), ("trunc:3", 2), ("trunc:4", 1)]:
        cfg = make_torus(name, 1)
        form_sys = assemble_form_constraints(cfg, d)
        fn_sys = assemble_function_constraints(cfg, d)
        form_sol = solve_nullspace(form_sys)
        fn_sol = solve_nullspace(fn_sys)
        residual, zm_dim = verify_class_injectivity(
            form_sol, fn_sol, cfg, form_sys.trig
        )
        assert residual <= 1e-9, (name, d)
        assert zm_dim >= 1


def test_zero_mean_structure_dual():
    # zero-mean closed solutions over dual numbers are d of (socle * basic)
    cfg = make_torus("dual", 1)
    system = assemble_form_constraints(cfg, 2)
    trig = system.trig
    sol = solve_nullspace(system)
    zm = zero_mean_combinations(sol, cfg, trig)
    assert zm.shape[0] == 4  # d/dx of a degree-2 trig polynomial, zero mean
    B = trig.size
    for vec in zm:
        table = vec.reshape(cfg.ncoords, cfg.n, B)
        assert np.abs(table[:, 0, :]).max() <= 1e-12  # no real component
        assert np.abs(table[1]).max() <= 1e-12  # only the d x^{1,0} slot


def test_nonzero_mean_constant_form_is_not_exact():
    cfg = make_torus("dual", 1)
    trig = cfg.trig_space(1)
    fn_sys = assemble_function_constraints(cfg, 1)
    fn_sol = solve_nullspace(fn_sys)
    B = trig.size
    omega = np.zeros(cfg.ncoords * cfg.n * B)
    omega[0] = 1.0  # constant dX-coefficient 1: nonzero class
    basis = np.vstack([function_differential(u, cfg, trig) for u in fn_sol])
    coef, *_ = np.linalg.lstsq(basis.T, omega, rcond=None)
    assert np.linalg.norm(basis.T @ coef - omega) >= 0.5


def test_function_differentials_satisfy_form_constraints():
    for name, d in [("dual", 2), ("trunc:3", 1), ("square:2", 1)]:
        cfg = make_torus(name, 1)
        form_sys = assemble_form_constraints(cfg, d)
        fn_sol = solve_nullspace(assemble_function_constraints(cfg, d))
        for u in fn_sol:
            dG = function_differential(u, cfg, form_sys.trig)
            assert form_sys.residual_inf(dG) <= 1e-9


def test_cohomologous_forms_share_breve_components():
    cfg = make_torus("trunc:3", 1)
    d = 1
    form_sys = assemble_form_constraints(cfg, d)
    trig = form_sys.trig
    form_sol = solve_nullspace(form_sys)
    fn_sol = solve_nullspace(assemble_function_constraints(cfg, d))
    rng = np.random.default_rng(3)
    for _ in range(5):
        omega = rng.standard_normal(form_sol.shape[0]) @ form_sol
        shift = rng.standard_normal(fn_sol.shape[0]) @ fn_sol
        sigma = omega + function_differential(shift, cfg, trig)
        for j0 in cfg.info.breve_indices():
            a = component_form(omega, j0, cfg, trig)
            b = component_form(sigma, j0, cfg, trig)
            assert np.abs(a - b).max() <= 1e-9


def test_component_dims_stabilize():
    cfg = make_torus("trunc:3", 1)
    dims = []
    for d in (1, 2, 3):
        sol = solve_nullspace(assemble_form_constraints(cfg, d))
        dims.append(component_space_dim(sol, 1, cfg, cfg.trig_space(d)))
    assert dims[0] <= dims[1] <= dims[2]
    assert dims[1] == dims[2]
    assert all(dim <= cfg.n * cfg.ncoords for dim in dims)


def test_forms_report_rendering():
    cfg = make_torus("trunc:3", 1)
    rep = forms_report(cfg, cohomology_report(cfg, 2))
    text = rep.render()
    assert "DIM_ZBREVE[e1]=2" in text
    assert "BOUND=9" in text
    assert rep.passed

    cfg_dual = make_torus("dual", 1)
    rep = forms_report(cfg_dual, cohomology_report(cfg_dual, 2))
    assert "NOTE" in rep.data  # vacuous component check
    assert rep.passed
