"""Closed A-linear 1-forms: exterior derivative, dimensions, injectivity."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg.algebra import from_spec, preset
from localalg.cli import main
from localalg.errors import IndexNotBreve, SizeCapExceeded
from localalg.forms import (
    assemble_form_constraints,
    cohomology_report,
    commutant_frame,
    component_space_dim,
    function_differential,
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
    solution_rows,
    solve_nullspace,
)

from util import (
    FORMS_LADDER,
    PRESETS,
    commutator_rows,
    component_form,
    dense_form_constraints,
    dense_function_differential,
    exterior_derivative,
    make_torus,
    reference_cohomology,
    scatter_rows,
    split_rows,
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
    solutions = scatter_rows(solve_nullspace(system), system.trig.size)
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
    for u in scatter_rows(solve_nullspace(system), trig.size):
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
    assert_allclose(system.residual_inf(split_rows(bad, trig.size)), 0.5, rtol=1e-12)
    # the dense oracle's A-linearity rows agree
    linear = dense_form_constraints(cfg, trig, closedness=False)
    assert np.abs(linear @ bad).max() >= 0.5
    # and no closed A-linear solution comes near it
    sol = scatter_rows(solve_nullspace(system), trig.size)
    assert np.linalg.norm(bad - (bad @ sol.T) @ sol) >= 0.5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_component_dim_trunc3_stable_in_degree(d):
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_form_constraints(cfg, d)
    assert component_space_dim(solve_nullspace(system), 1, cfg) == 2


def test_component_dim_rejects_non_breve_indices():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_form_constraints(cfg, 1)
    rows = solve_nullspace(system)
    with pytest.raises(IndexNotBreve):
        component_space_dim(rows, 1, cfg)  # socle index
    with pytest.raises(IndexNotBreve):
        component_space_dim(rows, 0, cfg)  # unit


def test_component_dim_empty_solutions():
    cfg = make_torus(preset("trunc:3"), 1)
    trig = cfg.trig_space(1)
    empty = solution_rows(np.zeros(0, int), np.zeros((0, cfg.ncoords * cfg.n)))
    assert component_space_dim(empty, 1, cfg) == 0


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
        form, fn = solve_nullspace(form_sys), solve_nullspace(fn_sys)
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
    zm = scatter_rows(zero_mean_combinations(solve_nullspace(system)), B)
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
    B = trig.size
    fn_sol = scatter_rows(solve_nullspace(fn_sys), B)
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
    rows = solution_rows(index, rng.standard_normal((8, cfg.n)))
    dense = dense_function_differential(scatter_rows(rows, trig.size), cfg, trig)
    dG = function_differential(rows, trig)
    assert dG["vec"].shape == (8, cfg.ncoords * cfg.n)
    assert np.array_equal(scatter_rows(dG, trig.size), dense)
    # a row on index 0 maps to zero there, which the dense stack cannot show
    assert np.array_equal(split_rows(dense, trig.size)["index"], dG["index"][1:])
    empty = function_differential(rows[:0], trig)
    assert empty.shape == (0,) and empty["vec"].shape == (0, dG["vec"].shape[1])


def test_injectivity_without_function_solutions_is_the_zero_mean_norm():
    cfg = make_torus(preset("dual"), 1)
    form_sys = assemble_form_constraints(cfg, 1)
    form = solve_nullspace(form_sys)
    zm = zero_mean_combinations(form)["vec"]
    none = function_differential(solve_nullspace(assemble_function_constraints(cfg, 1))[:0],
                                 form_sys.trig)
    assert none["vec"].shape == (0, form_sys.frame.shape[0])
    residual, zm_dim = verify_class_injectivity(form, none)
    assert zm_dim == zm.shape[0] >= 1
    assert_allclose(residual, np.linalg.norm(zm, axis=1).max(), rtol=1e-14)


def test_function_differentials_satisfy_form_constraints():
    for name, d in [("dual", 2), ("trunc:3", 1), ("square:2", 1)]:
        cfg = make_torus(preset(name), 1)
        form_sys = assemble_form_constraints(cfg, d)
        fn = solve_nullspace(assemble_function_constraints(cfg, d))
        dG = function_differential(fn, form_sys.trig)
        for q in range(len(dG)):
            assert form_sys.residual_inf(dG[q:q + 1]) <= 1e-9


def test_cohomologous_forms_share_breve_components():
    cfg = make_torus(preset("trunc:3"), 1)
    d = 1
    form_sys = assemble_form_constraints(cfg, d)
    trig = form_sys.trig
    form_sol = scatter_rows(solve_nullspace(form_sys), trig.size)
    fn_sol = scatter_rows(solve_nullspace(assemble_function_constraints(cfg, d)), trig.size)
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
        dims.append(component_space_dim(solve_nullspace(assemble_form_constraints(cfg, d)), 1, cfg))
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


def test_split_rows_gives_a_row_on_two_trig_indices_two_rows():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_form_constraints(cfg, 1)
    B = system.trig.size
    sol = solve_nullspace(system)
    assert split_rows(scatter_rows(sol, B), B).tobytes() == sol.tobytes()
    index = int(sol["index"][3])
    other = (index + 1) % B
    for value in (1e-300, np.nan):
        spread = scatter_rows(sol, B).reshape(len(sol), -1, B)
        spread[3, 0, other] = value
        rows = split_rows(spread.reshape(len(sol), -1), B)
        assert len(rows) == len(sol) + 1
        kept = np.concatenate([rows[:3], rows[5:]])
        assert kept.tobytes() == np.concatenate([sol[:3], sol[4:]]).tobytes()
        on = {int(b): vec for b, vec in zip(rows["index"][3:5], rows["vec"][3:5])}
        want = np.zeros(system.frame.shape[0])
        want[0] = value
        assert set(on) == {index, other}
        assert np.array_equal(on[index], sol["vec"][3])
        assert np.array_equal(on[other], want, equal_nan=True)


def test_forms_at_tol_1_keeps_the_solutions_compact(capsys):
    # at tol 1 every symbol direction is null: 4374 solution rows on 13122
    # columns, whose dense stack alone would take 459 MB
    tracemalloc.start()
    try:
        code = main(["forms", "--preset", "square:2", "--m", "2", "--degree", "1",
                     "--tol", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "\nFORM_NULLSPACE_DIM=4374\n" in capsys.readouterr().out
    assert peak <= 32 * 2**20


def test_component_rank_takes_one_ref_across_indices():
    # an e1-component of 1e-12 on its own trig index is round-off next to 1 on
    # another; ranked against its own index's largest value it would count
    cfg = make_torus(preset("trunc:3"), 1)
    index, vecs = np.array([1, 3]), np.zeros((2, cfg.ncoords * cfg.n))
    vecs[:, 1] = (1.0, 1e-12)  # coordinate 0, component e1
    assert component_space_dim(solution_rows(index, vecs), 1, cfg) == 1
    assert component_space_dim(solution_rows(index, vecs * [[1.0], [1e12]]), 1, cfg) == 2


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
