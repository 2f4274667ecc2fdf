"""Closed A-linear 1-forms: exterior derivative, dimensions, injectivity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg.algebra import from_spec, preset
from localalg.errors import IndexNotBreve, SizeCapExceeded
from localalg.forms import (
    assemble_form_constraints,
    cohomology_report,
    commutant_frame,
    component_space_dim,
    function_differential,
    index_rows,
    verify_class_injectivity,
    zero_mean_combinations,
)
from localalg.linalg import nullspace_rows
from localalg.torus import (
    DEFAULT_CAP,
    DEFAULT_NULL_TOL,
    TorusConfig,
    TrigSpace,
    assemble_function_constraints,
    commutator_rows,
    solve_nullspace,
)

from util import (
    FORMS_LADDER,
    PRESETS,
    component_form,
    dense_form_constraints,
    dense_function_differential,
    exterior_derivative,
    make_torus,
    reference_cohomology,
    scatter_index_rows,
    standard_basis,
)

# R[x]/(x^3) in the basis a = x + x^2, b = x - x^2/3, so x^2 = 3/4 (a - b)
RATIONAL_TRUNC3 = """algebra n=3
basis 1 a b
mul a a = 0.75*a - 0.75*b
mul a b = 0.75*a - 0.75*b
mul b b = 0.75*a - 0.75*b
"""


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("source", PRESETS + ("rational trunc:3",))
def test_commutant_frame_is_kernel_of_commutator_rows(source, m):
    if source in PRESETS:
        cfg = make_torus(preset(source), m)
    else:  # kept in its own basis, not standardized
        A = from_spec(RATIONAL_TRUNC3)
        cfg = TorusConfig(A, standard_basis(A), m)
    n, N = cfg.n, cfg.ncoords
    Q = commutant_frame(cfg)
    assert Q.shape == (N * n, m * n)
    assert_allclose(Q.T @ Q, np.eye(m * n), rtol=0, atol=1e-12)
    # the A-linearity rows, as built and entry by entry (B = 1 at degree 0)
    dense = dense_form_constraints(cfg, TrigSpace.build(N, 0), closedness=False)
    for C in (commutator_rows(cfg), dense):
        assert C.shape == (m * (n - 1) * n * n, N * n)
        assert np.linalg.norm(C @ Q) <= 1e-12 * np.linalg.norm(C)
        # the frame is the whole kernel, not part of it
        assert np.linalg.matrix_rank(C) == N * n - m * n


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
    cfg = make_torus(preset("trunc:3"), 1)
    trig = cfg.trig_space(1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(cfg.n * trig.size)
        dG = dense_function_differential(u, cfg, trig).reshape(
            cfg.ncoords, cfg.n, trig.size
        )
        dd = exterior_derivative(dG, trig)
        for block in dd.values():
            assert_allclose(block, 0.0, atol=1e-10)


def test_constant_forms_dual():
    # nullspace at degree 0 consists of W * dX, W in A: dimension 2
    cfg = make_torus(preset("dual"), 1)
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
    cfg = make_torus(preset(name), 1)
    system = assemble_form_constraints(cfg, d)
    solutions = solve_nullspace(system)
    assert solutions.shape[0] == expected
    if dense_oracle:
        dense = nullspace_rows(dense_form_constraints(cfg, system.trig), 1e-8)
        assert dense.shape[0] == expected
        proj = (dense @ solutions.T) @ solutions
        assert np.abs(proj - dense).max() <= 1e-9


def test_trunc3_breve_components_are_constant():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_form_constraints(cfg, 1)
    trig = system.trig
    for u in solve_nullspace(system):
        comp = component_form(u, 1, cfg, trig).reshape(cfg.ncoords, trig.size)
        assert np.abs(comp[:, 1:]).max() <= 1e-12  # no non-constant support


def test_injected_form_violates_a_linearity():
    # omega = cos(theta^{1,1}) d theta^{1,0} is not A-linear: its value
    # diag(1, 0) on slot 0 lies diag(1/2, -1/2) off the commutant frame, and
    # its projection I/2 on the frame has closedness defect 1/2
    cfg = make_torus(preset("dual"), 1)
    system = assemble_form_constraints(cfg, 1)
    trig = system.trig
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (0, 1))
    bad = np.zeros(system.ncols)
    bad[0 * cfg.n * trig.size + 0 * trig.size + 1 + 2 * pair] = 1.0
    assert_allclose(system.residual_inf(bad), 0.5, rtol=1e-12)
    # the dense oracle's A-linearity rows agree
    linear = dense_form_constraints(cfg, trig, closedness=False)
    assert np.abs(linear @ bad).max() >= 0.5
    # and no closed A-linear solution comes near it
    sol = solve_nullspace(system)
    assert np.linalg.norm(bad - (bad @ sol.T) @ sol) >= 0.5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_component_dim_trunc3_stable_in_degree(d):
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_form_constraints(cfg, d)
    solutions = solve_nullspace(system)
    assert component_space_dim(index_rows(solutions, system.trig.size), 1, cfg) == 2


def test_component_dim_rejects_non_breve_indices():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_form_constraints(cfg, 1)
    rows = index_rows(solve_nullspace(system), system.trig.size)
    with pytest.raises(IndexNotBreve):
        component_space_dim(rows, 1, cfg)  # socle index
    with pytest.raises(IndexNotBreve):
        component_space_dim(rows, 0, cfg)  # unit


def test_component_dim_empty_solutions():
    cfg = make_torus(preset("trunc:3"), 1)
    trig = cfg.trig_space(1)
    empty = np.zeros((0, cfg.ncoords * cfg.n * trig.size))
    assert component_space_dim(index_rows(empty, trig.size), 1, cfg) == 0


def keyed(rep, key):
    """The machine keys ``KEY[label]`` of a report, by label."""
    return {k[len(key) + 1:-1]: v for k, v in rep.data.items() if k.startswith(key + "[")}


def test_dims_within_bound():
    rep = cohomology_report(make_torus(preset("trunc:3"), 1), 2)
    assert keyed(rep, "DIM_ZBREVE") == {"e1": 2}
    assert rep.data["BOUND"] == 9
    assert all(dim <= 9 for dim in keyed(rep, "DIM_ZBREVE").values())
    assert rep.checks[0].name == "component_dim_bound" and rep.checks[0].passed

    rep4 = cohomology_report(make_torus(preset("trunc:4"), 1), 1)
    assert rep4.data["BOUND"] == 16
    assert set(keyed(rep4, "DIM_ZBREVE")) == {"e1", "e2"}
    assert all(dim <= 16 for dim in keyed(rep4, "DIM_ZBREVE").values())


def test_degree0_components_are_constants():
    for name in ("trunc:3", "trunc:4"):
        rep = cohomology_report(make_torus(preset(name), 1), 1)
        assert all(dim == 1 for dim in keyed(rep, "DEGREE0_DIM").values()), name


def test_h0_is_constants():
    for name, d in [("dual", 1), ("trunc:3", 1), ("square:2", 1)]:
        cfg = make_torus(preset(name), 1)
        rep = cohomology_report(cfg, d)
        assert rep.data["H0_DIM"] == cfg.n


def test_zero_mean_solutions_are_differentials():
    for name, d in [("dual", 2), ("trunc:3", 1), ("trunc:3", 2), ("trunc:4", 1)]:
        cfg = make_torus(preset(name), 1)
        form_sys = assemble_form_constraints(cfg, d)
        fn_sys = assemble_function_constraints(cfg, d)
        B = form_sys.trig.size
        form = index_rows(solve_nullspace(form_sys), B)
        fn = index_rows(solve_nullspace(fn_sys), B)
        dG = function_differential(fn, form_sys.trig)
        residual, zm_dim = verify_class_injectivity(form, dG)
        assert residual <= 1e-9, (name, d)
        assert zm_dim >= 1


def test_zero_mean_structure_dual():
    # zero-mean closed solutions over dual numbers are d of (socle * basic)
    cfg = make_torus(preset("dual"), 1)
    system = assemble_form_constraints(cfg, 2)
    trig = system.trig
    B = trig.size
    zm = scatter_index_rows(zero_mean_combinations(index_rows(solve_nullspace(system), B)), B)
    assert zm.shape[0] == 4  # d/dx of a degree-2 trig polynomial, zero mean
    for vec in zm:
        table = vec.reshape(cfg.ncoords, cfg.n, B)
        assert np.abs(table[:, :, 0]).max() <= 1e-12  # zero mean
        assert np.abs(table[:, 0, :]).max() <= 1e-12  # no real component
        assert np.abs(table[1]).max() <= 1e-12  # only the d x^{1,0} slot


def test_nonzero_mean_constant_form_is_not_exact():
    cfg = make_torus(preset("dual"), 1)
    trig = cfg.trig_space(1)
    fn_sys = assemble_function_constraints(cfg, 1)
    fn_sol = solve_nullspace(fn_sys)
    B = trig.size
    omega = np.zeros(cfg.ncoords * cfg.n * B)
    omega[0] = 1.0  # constant dX-coefficient 1: nonzero class
    basis = np.vstack([dense_function_differential(u, cfg, trig) for u in fn_sol])
    coef, *_ = np.linalg.lstsq(basis.T, omega, rcond=None)
    assert np.linalg.norm(basis.T @ coef - omega) >= 0.5


def test_function_differential_of_a_stack_is_row_by_row():
    # per index against trig_derivative on the dense stack, bit for bit, on
    # rows on index 0, on cos and on sin indices
    cfg = make_torus(preset("trunc:3"), 1)
    trig = cfg.trig_space(1)
    rng = np.random.default_rng(3)
    index = np.concatenate([[0], rng.integers(1, trig.size, 7)])
    rows = (index, rng.standard_normal((8, cfg.n)))
    dense = dense_function_differential(scatter_index_rows(rows, trig.size), cfg, trig)
    dG = function_differential(rows, trig)
    assert dG[1].shape == (8, cfg.ncoords * cfg.n)
    assert np.array_equal(scatter_index_rows(dG, trig.size), dense)
    assert np.array_equal(index_rows(dense, trig.size)[0], dG[0])
    empty = function_differential((index[:0], rows[1][:0]), trig)
    assert empty[0].shape == (0,) and empty[1].shape == (0, dG[1].shape[1])


def test_injectivity_without_function_solutions_is_the_zero_mean_norm():
    cfg = make_torus(preset("dual"), 1)
    form_sys = assemble_form_constraints(cfg, 1)
    B = form_sys.trig.size
    form = index_rows(solve_nullspace(form_sys), B)
    zm = zero_mean_combinations(form)[1]
    none = function_differential(index_rows(np.zeros((0, cfg.n * B)), B), form_sys.trig)
    assert none[1].shape == (0, form_sys.frame.shape[0])
    residual, zm_dim = verify_class_injectivity(form, none)
    assert zm_dim == zm.shape[0] >= 1
    assert_allclose(residual, np.linalg.norm(zm, axis=1).max(), rtol=1e-14)


def test_function_differentials_satisfy_form_constraints():
    for name, d in [("dual", 2), ("trunc:3", 1), ("square:2", 1)]:
        cfg = make_torus(preset(name), 1)
        form_sys = assemble_form_constraints(cfg, d)
        B = form_sys.trig.size
        fn = index_rows(solve_nullspace(assemble_function_constraints(cfg, d)), B)
        for u in scatter_index_rows(function_differential(fn, form_sys.trig), B):
            assert form_sys.residual_inf(u) <= 1e-9


def test_cohomologous_forms_share_breve_components():
    cfg = make_torus(preset("trunc:3"), 1)
    d = 1
    form_sys = assemble_form_constraints(cfg, d)
    trig = form_sys.trig
    form_sol = solve_nullspace(form_sys)
    fn_sol = solve_nullspace(assemble_function_constraints(cfg, d))
    rng = np.random.default_rng(3)
    for _ in range(5):
        omega = rng.standard_normal(form_sol.shape[0]) @ form_sol
        shift = rng.standard_normal(fn_sol.shape[0]) @ fn_sol
        sigma = omega + dense_function_differential(shift, cfg, trig)
        for j0 in cfg.info.breve_indices():
            a = component_form(omega, j0, cfg, trig)
            b = component_form(sigma, j0, cfg, trig)
            assert np.abs(a - b).max() <= 1e-9


def test_component_dims_stabilize():
    cfg = make_torus(preset("trunc:3"), 1)
    dims = []
    for d in (1, 2, 3):
        sol = solve_nullspace(assemble_form_constraints(cfg, d))
        dims.append(component_space_dim(index_rows(sol, cfg.trig_space(d).size), 1, cfg))
    assert dims[0] <= dims[1] <= dims[2]
    assert dims[1] == dims[2]
    assert all(dim <= cfg.n * cfg.ncoords for dim in dims)


def test_forms_report_rendering():
    cfg = make_torus(preset("trunc:3"), 1)
    rep = cohomology_report(cfg, 2)
    text = rep.render()
    assert "DIM_ZBREVE[e1]=2" in text
    assert "BOUND=9" in text
    assert rep.passed

    cfg_dual = make_torus(preset("dual"), 1)
    rep = cohomology_report(cfg_dual, 2)
    assert "NOTE" in rep.data  # vacuous component check
    assert rep.passed


def test_form_solve_rank_margins():
    # on every uncapped ladder config each singular value of the form symbols
    # sits at least a factor 1e2 away from the rank cut tol * ref
    solved = 0
    for name, m, d in FORMS_LADDER:
        try:
            system = assemble_form_constraints(make_torus(preset(name), m), d)
        except SizeCapExceeded:
            continue
        s = np.linalg.svd(system.symbols, compute_uv=False)
        cut = DEFAULT_NULL_TOL * s.max()
        counted = s > cut
        assert s[counted].min(initial=np.inf) >= 1e2 * cut, (name, m, d)
        assert s[~counted].max(initial=0.0) <= cut / 1e2, (name, m, d)
        solved += 1
    assert solved == 44


def test_index_rows_refuses_a_row_on_two_trig_indices():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_form_constraints(cfg, 1)
    B = system.trig.size
    sol = solve_nullspace(system)
    index, vecs = index_rows(sol, B)
    assert np.array_equal(scatter_index_rows((index, vecs), B), sol)
    for value in (1e-300, np.nan):
        spread = sol.reshape(len(sol), -1, B).copy()
        spread[3, 0, (index[3] + 1) % B] = value
        with pytest.raises(ValueError, match="more than one trig index"):
            index_rows(spread.reshape(len(sol), -1), B)


def test_component_rank_takes_one_ref_across_indices():
    # an e1-component of 1e-12 on its own trig index is round-off next to 1 on
    # another; ranked against its own index's largest value it would count
    cfg = make_torus(preset("trunc:3"), 1)
    index, vecs = np.array([1, 3]), np.zeros((2, cfg.ncoords * cfg.n))
    vecs[:, 1] = (1.0, 1e-12)  # coordinate 0, component e1
    assert component_space_dim((index, vecs), 1, cfg) == 1
    assert component_space_dim((index, vecs * [[1.0], [1e12]]), 1, cfg) == 2


# every ladder config under the column cap (the benchmark's six forms jobs
# among them), and the tolerances that null more symbol directions
DENSE_ORACLE = [(name, m, d, DEFAULT_NULL_TOL) for name, m, d in FORMS_LADDER
                if preset(name).n ** 2 * m * (2 * d + 1) ** (preset(name).n * m) <= DEFAULT_CAP]
DENSE_ORACLE += [(name, m, d, tol) for name, m, d in (("dual", 2, 1), ("square:2", 1, 2))
                 for tol in (1e-3, 1.0)]


@pytest.mark.parametrize("name,m,d,tol", DENSE_ORACLE)
def test_cohomology_report_matches_dense_reference(name, m, d, tol):
    cfg = make_torus(preset(name), m)
    rep, ref = cohomology_report(cfg, d, tol), reference_cohomology(cfg, d, tol)
    assert [(c.name, c.passed) for c in rep.checks] == [(c.name, c.passed) for c in ref.checks]
    exact = [(c.name, c.detail) for r in (rep, ref) for c in r.checks
             if c.name != "class_map_injective"]
    assert exact[:len(exact) // 2] == exact[len(exact) // 2:]
    assert list(rep.data) == list(ref.data)
    assert ({k: v for k, v in rep.data.items() if k != "INJECTIVITY_RESIDUAL"}
            == {k: v for k, v in ref.data.items() if k != "INJECTIVITY_RESIDUAL"})
    # the residual depends on the zero-mean basis: round-off when the fit holds
    residuals = rep.data["INJECTIVITY_RESIDUAL"], ref.data["INJECTIVITY_RESIDUAL"]
    assert all(r <= 1e-12 for r in residuals) or all(r > 1e-9 for r in residuals)
