"""Spectral constraint systems on tori: assembly, nullspaces, suite checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg.algebra import socle_basis
from localalg.errors import SizeCapExceeded
from localalg.lift import APoint, adiff_defect
from localalg.linalg import nullspace_rows
from localalg.forms import assemble_form_constraints
from localalg import torus
from localalg.torus import (
    ConstraintSystem,
    TrigSpace,
    assemble_function_constraints,
    make_torus,
    solve_nullspace,
    verify_constancy,
    verify_min_leaf,
    verify_min_leaf_all,
    verify_socle_decomposition,
)

from util import (
    constant_function_vectors,
    dense_form_constraints,
    dense_function_constraints,
    reference_min_leaf,
    socle_embedding_vector,
    torus_value_map,
)

# analytic dimension count: constants (n of them) plus one copy of the
# non-constant transversal trig functions per socle component
def expected_dim(n, socle_dim, m, d):
    return n + socle_dim * ((2 * d + 1) ** m - 1)


CONFIGS = [
    ("dual", 1, 0),
    ("dual", 1, 1),
    ("dual", 1, 2),
    ("dual", 1, 3),
    ("trunc:3", 1, 0),
    ("trunc:3", 1, 1),
    ("trunc:3", 1, 2),
    ("square:2", 1, 0),
    ("square:2", 1, 1),
    ("trunc:4", 1, 1),
    ("dual", 2, 1),
]


def test_trig_space_counts():
    trig = TrigSpace.build(2, 3)
    assert trig.size == (2 * 3 + 1) ** 2
    assert trig.npairs == ((2 * 3 + 1) ** 2 - 1) // 2
    assert trig.freq_of(0) == (0, 0)
    trig0 = TrigSpace.build(3, 0)
    assert trig0.size == 1 and trig0.npairs == 0


def test_trig_derivatives_are_exact():
    trig = TrigSpace.build(2, 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2 * np.pi, size=(40, 2))
    u = rng.standard_normal(trig.size)
    U = rng.standard_normal((3, 2, trig.size))
    h = 1e-6
    for axis in range(2):
        du = trig.derivative(u, axis)
        step = np.zeros(2)
        step[axis] = h
        fd = (trig.values(pts + step) @ u - trig.values(pts - step) @ u) / (2 * h)
        assert np.abs(fd - trig.values(pts) @ du).max() < 1e-7
        # one product per entry: bit-identical to the dense derivative matrix
        D = np.zeros((trig.size, trig.size))
        for p in range(trig.npairs):
            k = float(trig.freqs[p, axis])
            D[2 + 2 * p, 1 + 2 * p] = -k
            D[1 + 2 * p, 2 + 2 * p] = k
        assert np.array_equal(trig.derivative(U, axis), U @ D.T)


def test_trig_values_are_the_cos_sin_formula_bitwise():
    trig = TrigSpace.build(3, 2)
    pts = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(50, 3))
    phases = pts @ trig.freqs.T.astype(float)
    vals = trig.values(pts)
    assert vals.shape == (50, trig.size)
    assert np.array_equal(vals[:, 0], np.ones(50))
    assert np.array_equal(vals[:, 1::2], np.cos(phases))
    assert np.array_equal(vals[:, 2::2], np.sin(phases))


def test_trig_transversal_mask():
    trig = TrigSpace.build(2, 1)
    mask = trig.transversal_mask(1)
    for t in range(trig.size):
        assert mask[t] == (trig.freq_of(t)[1] == 0)


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_nullspace_dimension_matches_analytic_count(name, m, d):
    cfg = make_torus(name, m)
    system = assemble_function_constraints(cfg, d)
    solutions = solve_nullspace(system)
    want = expected_dim(cfg.n, len(cfg.info.socle), m, d)
    assert solutions.shape[0] == want
    # solutions are orthonormal and satisfy the constraints
    assert_allclose(solutions @ solutions.T, np.eye(want), atol=1e-12)
    for u in solutions:
        assert system.residual_inf(u) <= 1e-12


ASSEMBLERS = {
    "functions": (assemble_function_constraints, dense_function_constraints),
    "forms": (assemble_form_constraints, dense_form_constraints),
}


# CONFIGS already holds every config the forms tests compare with a dense matrix
@pytest.mark.parametrize("kind", sorted(ASSEMBLERS))
@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_symbol_matches_dense_oracle(kind, name, m, d):
    assemble, oracle = ASSEMBLERS[kind]
    cfg = make_torus(name, m)
    system = assemble(cfg, d)
    trig = system.trig
    M = oracle(cfg, trig)
    assert M.shape == (system.nrows, system.ncols)
    modes, R, nunk = system.symbols.shape

    # the symbol nullspace spans the oracle's nullspace (every M is tall)
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    smax = s[0]
    dense = vh[s <= 1e-8 * smax]
    sol = solve_nullspace(system)
    assert sol.shape[0] == dense.shape[0]
    assert np.abs((dense @ sol.T) @ sol - dense).max(initial=0.0) <= 1e-9

    # per mode, the oracle block has the symbol's singular values, each twice
    sym_s = np.linalg.svd(system.symbols, compute_uv=False)
    assert abs(sym_s.max() - smax) <= 1e-12 * smax
    B = trig.size
    for p in range(modes):
        ts = [0] if p == 0 else [2 * p - 1, 2 * p]
        first = 0 if p == 0 else R * (2 * p - 1)
        cols = [u * B + t for u in range(nunk) for t in ts]
        block = M[first:first + R * len(ts)][:, cols]
        want = np.sort(np.repeat(sym_s[p], len(ts)))
        got = np.sort(np.linalg.svd(block, compute_uv=False))
        assert_allclose(got, want, rtol=0, atol=1e-12 * smax)

    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(system.ncols)
        assert abs(system.residual_inf(u) - np.abs(M @ u).max()) <= 1e-12
    # a (S, ncols) stack gives the largest violation of any of its rows
    stack = rng.standard_normal((4, system.ncols))
    res = system.residual_inf(stack)
    assert isinstance(res, float)
    assert abs(res - np.abs(M @ stack.T).max()) <= 1e-12


def test_cap_checked_before_enumeration(monkeypatch):
    # trunc:3 at m=3, d=3 would enumerate 7^9 frequency tuples
    def refuse(cls, ncoords, degree):
        raise AssertionError("TrigSpace.build ran before the cap check")

    monkeypatch.setattr(TrigSpace, "build", classmethod(refuse))
    cfg = make_torus("trunc:3", 3)
    with pytest.raises(SizeCapExceeded, match=f"^{3 * 7**9} columns"):
        assemble_function_constraints(cfg, 3)
    with pytest.raises(SizeCapExceeded, match=f"^{9 * 3 * 7**9} columns"):
        assemble_form_constraints(cfg, 3)


@pytest.mark.parametrize("name,m,d", [
    ("dual", 1, 1), ("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1),
])
def test_block_solver_matches_dense_oracle(name, m, d):
    cfg = make_torus(name, m)
    system = assemble_function_constraints(cfg, d)
    block_sol = solve_nullspace(system)
    dense = nullspace_rows(dense_function_constraints(cfg, system.trig), 1e-8)
    assert dense.shape[0] == block_sol.shape[0]
    # identical spans: dense vectors project fully onto the block solutions
    proj = (dense @ block_sol.T) @ block_sol
    assert np.abs(proj - dense).max() <= 1e-9


def test_dense_matrix_agrees_with_block_residuals():
    cfg = make_torus("trunc:3", 1)
    system = assemble_function_constraints(cfg, 1)
    M = dense_function_constraints(cfg, system.trig)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal(system.ncols)
        assert abs(system.residual_inf(u) - np.abs(M @ u).max()) <= 1e-12


def test_solve_nullspace_zero_system_is_full_space():
    cfg = make_torus("dual", 1)
    system = assemble_function_constraints(cfg, 0)
    assert not np.any(dense_function_constraints(cfg, system.trig))
    assert solve_nullspace(system).shape[0] == system.ncols == 2


def test_solve_nullspace_full_rank_system_is_empty():
    system = ConstraintSystem(trig=TrigSpace.build(1, 0), symbols=np.eye(2)[None])
    assert system.nrows == system.ncols == 2
    assert solve_nullspace(system).shape[0] == 0


def test_constants_embed():
    for name, m, d in CONFIGS:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        for vec in constant_function_vectors(cfg, system.trig):
            assert system.residual_inf(vec) <= 1e-10


def test_socle_embedding_is_in_nullspace():
    # basic trig polynomial times a socle element solves the system exactly
    rng = np.random.default_rng(2)
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1),
                       ("trunc:4", 1, 1)]:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        trig = system.trig
        tmask = trig.transversal_mask(m)
        for s in socle_basis(cfg.algebra):
            f = rng.standard_normal(trig.size) * tmask
            vec = socle_embedding_vector(cfg, trig, s, f)
            assert system.residual_inf(vec) <= 1e-9 * (1 + np.abs(vec).max())


def test_verify_constancy_passes_on_solutions():
    for name, m, d in CONFIGS:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_constancy(solutions, cfg, system.trig)
        assert rep.passed, rep.render()
        assert rep.data["NULLSPACE_DIM"] == solutions.shape[0]


def test_verify_constancy_flags_injected_counterexample():
    cfg = make_torus("dual", 1)
    system = assemble_function_constraints(cfg, 1)
    trig = system.trig
    bad = np.zeros(system.ncols)
    # g = sin(x^{1,0}): frequency (1, 0), sin index
    pair = next(p for p in range(trig.npairs)
                if tuple(trig.freqs[p]) == (1, 0))
    bad[2 + 2 * pair] = 1.0
    rep = verify_constancy(bad, cfg, trig)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "real_part_constant" in failed
    assert any("freq=(1, 0)" in str(v) for k, v in rep.data.items()
               if k.startswith("REAL_PART_VIOLATION"))
    # a constant passes trivially
    const = constant_function_vectors(cfg, trig)[0]
    assert verify_constancy(const, cfg, trig).passed


def test_verify_socle_decomposition():
    for name, m, d in CONFIGS:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_socle_decomposition(solutions, cfg, system.trig)
        assert rep.passed, (name, d, rep.render())


def test_nonconstant_dimension_ratio_is_socle_dim():
    # (dim - n) / (transversal trig functions - 1) equals the socle dimension
    for name in ("dual", "trunc:3", "square:2"):
        cfg = make_torus(name, 1)
        ratios = []
        for d in (1, 2):
            system = assemble_function_constraints(cfg, d)
            dim = solve_nullspace(system).shape[0]
            ratios.append((dim - cfg.n) / ((2 * d + 1) ** cfg.m - 1))
        assert ratios[0] == ratios[1] == len(cfg.info.socle)


def test_min_leaf_on_solutions():
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1)]:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_min_leaf_all(solutions, cfg, system.trig, grid=32,
                                  system=system)
        assert rep.passed, rep.render()
        assert rep.data["GRAD_MAX"] <= 1e-8


def test_min_leaf_constant_solution_exact():
    cfg = make_torus("trunc:3", 1)
    system = assemble_function_constraints(cfg, 1)
    const = constant_function_vectors(cfg, system.trig)[0]
    rep = verify_min_leaf(const, cfg, system.trig, grid=8, system=system)
    assert rep.passed
    assert rep.data["GRAD_MAX"] == 0.0
    assert rep.data["G_VARIATION"] == 0.0


def test_min_leaf_flags_injected_nondifferentiable():
    cfg = make_torus("dual", 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    rep = verify_min_leaf(bad, cfg, trig, grid=32, system=system)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    # gradient vanishes on the critical leaf but g is not constant and the
    # constraint rows reject the function
    assert "real_part_variation" in failed
    assert "adiff_constraints" in failed


MIN_LEAF_KEYS = ("MIN_LEAF_AVG", "GRAD_MAX", "G_VARIATION", "ADIFF_RESIDUAL")


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_min_leaf_matches_reference(name, m, d):
    # solutions and seeded sparse and dense non-solutions, checked one by one
    # and as one stack against the per-solution check evaluated on each leaf
    # directly; dense real parts mix cos and sin in every pair
    cfg = make_torus(name, m)
    system = assemble_function_constraints(cfg, d)
    trig = system.trig
    rng = np.random.default_rng(11)
    noise = np.zeros((4, system.ncols))
    for row in noise:
        picked = rng.choice(system.ncols, size=min(6, system.ncols), replace=False)
        row[picked] = rng.standard_normal(len(picked))
    dense = rng.standard_normal((2, system.ncols))
    stack = np.vstack([solve_nullspace(system), noise, dense])

    refs = [reference_min_leaf(u, cfg, trig, system=system).data for u in stack]
    for u, ref in zip(stack, refs):
        got = verify_min_leaf(u, cfg, trig, system=system).data
        assert got["MIN_LEAF_INDEX"] == ref["MIN_LEAF_INDEX"]
        for key in MIN_LEAF_KEYS:
            assert_allclose(got[key], ref[key], rtol=1e-12, atol=1e-15)

    qmin, avg, grad, variation, residual = torus._min_leaf(
        stack, cfg, trig, 32, 8, system)
    assert list(qmin) == [ref["MIN_LEAF_INDEX"] for ref in refs]
    for got, key in ((avg, "MIN_LEAF_AVG"), (grad, "GRAD_MAX"),
                     (variation, "G_VARIATION")):
        assert_allclose(got, [ref[key] for ref in refs], rtol=1e-12, atol=1e-15)
    assert_allclose(residual, max(ref["ADIFF_RESIDUAL"] for ref in refs),
                    rtol=1e-12, atol=1e-15)


def test_min_leaf_tie_goes_to_smallest_row_major_index():
    # g1 = cos(theta_1) is smallest on the whole line theta_1 = pi: the
    # 32 lattice points (16, j) tie exactly, and (16, 0) has index 16 * 32
    cfg = make_torus("dual", 2)
    trig = assemble_function_constraints(cfg, 1).trig
    u = np.zeros(cfg.n * trig.size)
    pair = next(p for p in range(trig.npairs)
                if tuple(trig.freqs[p]) == (1, 0, 0, 0))
    u[trig.size + 1 + 2 * pair] = 1.0
    for rep in (verify_min_leaf(u, cfg, trig), reference_min_leaf(u, cfg, trig)):
        assert rep.data["MIN_LEAF_INDEX"] == 512
        assert rep.data["MIN_LEAF_AVG"] == -1.0


def test_min_leaf_all_flags_injected_among_solutions():
    cfg = make_torus("dual", 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    solutions = solve_nullspace(system)
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    stack = np.vstack([solutions[:3], bad, solutions[3:]])
    rep = verify_min_leaf_all(stack, cfg, trig, system=system)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"real_part_variation", "adiff_constraints"}
    assert verify_min_leaf_all(solutions, cfg, trig, system=system).passed


def test_min_leaf_all_builds_each_design_matrix_once(monkeypatch):
    calls = []
    values = TrigSpace.values

    def counted(self, points):
        calls.append(len(points))
        return values(self, points)

    monkeypatch.setattr(TrigSpace, "values", counted)
    cfg = make_torus("trunc:3", 1)
    system = assemble_function_constraints(cfg, 2)
    solutions = solve_nullspace(system)
    for stack in (solutions[:1], solutions, np.vstack([solutions] * 3)):
        calls.clear()
        assert verify_min_leaf_all(stack, cfg, system.trig, system=system).passed
        assert len(calls) == 2


def test_solutions_pass_pointwise_defect():
    # cross-module consistency: trig solutions are differentiable over A
    rng = np.random.default_rng(5)
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1)]:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        for u in solutions:
            F = torus_value_map(u, cfg, system.trig)
            for _ in range(10):
                X = APoint(rng.uniform(0, 2 * np.pi, size=(m, cfg.n)))
                assert adiff_defect(F, X, cfg.algebra) <= 1e-5


def test_solver_is_deterministic():
    cfg = make_torus("trunc:3", 1)
    a = solve_nullspace(assemble_function_constraints(cfg, 1))
    b = solve_nullspace(assemble_function_constraints(cfg, 1))
    assert np.array_equal(a, b)


def test_size_cap():
    cfg = make_torus("trunc:4", 1)
    with pytest.raises(SizeCapExceeded):
        assemble_function_constraints(cfg, 6)
    assemble_function_constraints(cfg, 6, cap=10**7)  # explicit override works
