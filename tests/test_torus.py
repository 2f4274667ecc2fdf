"""Spectral constraint systems on tori: assembly, nullspaces, suite checks."""

import collections
import functools
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from localalg.algebra import preset, radical_basis, socle_basis
from localalg.cli import main
from localalg.errors import SizeCapExceeded
from localalg.lift import adiff_defect
from localalg import linalg
from localalg.linalg import nullspace_rows
from localalg.forms import assemble_form_constraints
from localalg import torus
from localalg.torus import (
    ConstraintSystem,
    TrigSpace,
    assemble_function_constraints,
    commutator_rows,
    solve_nullspace,
    verify_constancy,
    verify_min_leaf,
    verify_min_leaf_all,
    verify_socle_decomposition,
)

from util import (
    FORMS_LADDER,
    constant_function_vectors,
    dense_form_constraints,
    dense_function_constraints,
    make_torus,
    reference_constancy,
    reference_min_leaf,
    reference_residual_inf,
    reference_socle_decomposition,
    reference_solve_nullspace,
    reference_trig_freqs,
    socle_embedding_vector,
    torus_value_map,
    trig_derivative,
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


# every box of at most 10^6 frequencies, all but N=8 d=3
@pytest.mark.parametrize("ncoords,degree", [
    (N, d) for N in range(1, 9) for d in range(-1, 4) if (2 * d + 1) ** N <= 10**6])
def test_trig_space_frequencies_match_enumeration(ncoords, degree):
    freqs = TrigSpace.build(ncoords, degree).freqs
    want = reference_trig_freqs(ncoords, degree)
    assert freqs.dtype == want.dtype and freqs.flags.c_contiguous
    assert freqs.shape == want.shape and np.array_equal(freqs, want)


def test_trig_derivatives_are_exact():
    trig = TrigSpace.build(2, 2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2 * np.pi, size=(40, 2))
    u = rng.standard_normal(trig.size)
    U = rng.standard_normal((3, 2, trig.size))
    h = 1e-6
    for axis in range(2):
        du = trig_derivative(trig, u, axis)
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
        assert np.array_equal(trig_derivative(trig, U, axis), U @ D.T)


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
    cfg = make_torus(preset(name), m)
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
    cfg = make_torus(preset(name), m)
    system = assemble(cfg, d)
    trig = system.trig
    B = trig.size
    M = oracle(cfg, trig)
    modes, R, nsym = system.symbols.shape
    # the symbols act on frame coordinates (the identity frame for
    # functions); the oracle keeps every row, A-linearity first in each mode
    lift = np.kron(system.frame, np.eye(B))
    dropped = 0 if kind == "functions" else len(commutator_rows(cfg))
    assert M.shape == ((R + dropped) * B, system.ncols)
    assert system.nrows == R * B

    # the symbol nullspace spans the full oracle's nullspace (every M is tall)
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    dense = vh[s <= 1e-8 * s[0]]
    sol = solve_nullspace(system)
    assert sol.shape[0] == dense.shape[0]
    assert np.abs((dense @ sol.T) @ sol - dense).max(initial=0.0) <= 1e-9

    # per mode, the oracle block on the frame columns has the symbol's
    # singular values, each twice, and its A-linearity rows vanish there
    MF, smax = M @ lift, s[0]
    sym_s = np.linalg.svd(system.symbols, compute_uv=False)
    assert abs(sym_s.max() - np.linalg.norm(MF, 2)) <= 1e-12 * smax
    for p in range(modes):
        ts = [0] if p == 0 else [2 * p - 1, 2 * p]
        first = 0 if p == 0 else (R + dropped) * (2 * p - 1)
        cols = [u * B + t for u in range(nsym) for t in ts]
        block = MF[first:first + (R + dropped) * len(ts)][:, cols]
        assert np.abs(block[:dropped * len(ts)]).max(initial=0.0) <= 1e-12 * smax
        want = np.sort(np.repeat(sym_s[p], len(ts)))
        got = np.sort(np.linalg.svd(block, compute_uv=False))
        assert_allclose(got, want, rtol=0, atol=1e-12 * smax)

    rng = np.random.default_rng(7)
    for _ in range(5):
        u = lift @ rng.standard_normal(nsym * B)
        assert abs(system.residual_inf(u) - np.abs(M @ u).max()) <= 1e-12
    # a (S, ncols) stack gives the largest violation of any of its rows
    stack = rng.standard_normal((4, nsym * B)) @ lift.T
    res = system.residual_inf(stack)
    assert isinstance(res, float)
    assert abs(res - np.abs(M @ stack.T).max()) <= 1e-12


def test_cap_checked_before_enumeration(monkeypatch):
    # trunc:3 at m=3, d=3 would enumerate 7^9 frequency tuples
    def refuse(cls, ncoords, degree):
        raise AssertionError("TrigSpace.build ran before the cap check")

    monkeypatch.setattr(TrigSpace, "build", classmethod(refuse))
    cfg = make_torus(preset("trunc:3"), 3)
    with pytest.raises(SizeCapExceeded, match=f"^{3 * 7**9} columns"):
        assemble_function_constraints(cfg, 3)
    with pytest.raises(SizeCapExceeded, match=f"^{9 * 3 * 7**9} columns"):
        assemble_form_constraints(cfg, 3)


@pytest.mark.parametrize("name,m,d", [
    ("dual", 1, 1), ("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1),
])
def test_block_solver_matches_dense_oracle(name, m, d):
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    block_sol = solve_nullspace(system)
    dense = nullspace_rows(dense_function_constraints(cfg, system.trig), 1e-8)
    assert dense.shape[0] == block_sol.shape[0]
    # identical spans: dense vectors project fully onto the block solutions
    proj = (dense @ block_sol.T) @ block_sol
    assert np.abs(proj - dense).max() <= 1e-9


def test_dense_matrix_agrees_with_block_residuals():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_function_constraints(cfg, 1)
    M = dense_function_constraints(cfg, system.trig)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal(system.ncols)
        assert abs(system.residual_inf(u) - np.abs(M @ u).max()) <= 1e-12


@functools.cache
def _residual_system(kind):
    """A function system on the identity frame, or a forms system on the
    commutant frame (9 unknowns, 3 symbol columns), with its solutions."""
    assemble = {"function": assemble_function_constraints,
                "form": assemble_form_constraints}[kind]
    system = assemble(make_torus(preset("trunc:3"), 1), 2)
    return system, solve_nullspace(system)


@pytest.mark.parametrize("kind", ["function", "form"])
def test_residual_inf_of_empty_stack_is_zero(kind):
    system, _ = _residual_system(kind)
    assert system.residual_inf(np.zeros((0, system.ncols))) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["function", "form"]), seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.sampled_from(["solution", "one_index", "dense", "zero"]), max_size=6),
       specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
def test_residual_inf_matches_dense_reference(kind, seed, rows, specials):
    # only the support is read; the reference multiplies every mode's symbol
    # by every column, so zero columns must add nothing and NaN must survive
    system, solutions = _residual_system(kind)
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(rows), system.frame.shape[0], system.trig.size))
    for row, what in zip(stack, rows):
        if what == "solution":
            row[:] = solutions[rng.integers(len(solutions))].reshape(row.shape)
        elif what == "one_index":
            row[:, rng.integers(row.shape[1])] = rng.standard_normal(len(row))
        elif what == "dense":
            row[:] = rng.standard_normal(row.shape)
    stack = stack.reshape(len(rows), system.ncols)
    for value in specials if len(rows) else ():
        stack[rng.integers(len(rows)), rng.integers(system.ncols)] = value
    with np.errstate(invalid="ignore"):  # inf times a zero frame entry
        got, want = system.residual_inf(stack), reference_residual_inf(system, stack)
    # a few ulps; NaN where the reference is NaN, and only there
    assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("name,m,d", [
    ("dual", 2, 2), ("trunc:3", 2, 1), ("square:2", 2, 1), ("trunc:3", 1, 2),
])
def test_residual_inf_allocates_a_fraction_of_the_stack(name, m, d):
    # the verify_leaf benchmark configs: the dense product over every mode
    # took 10 to 26 times the solution stack's bytes. The gathered symbols,
    # one (rows, symbol columns) block per solution, and a few array headers
    # read 0.29 times the 21 kB stack of trunc:3 m=1 d=2, 0.08 on the others
    system = assemble_function_constraints(make_torus(preset(name), m), d)
    solutions = solve_nullspace(system)
    system.residual_inf(solutions)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system.residual_inf(solutions)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= solutions.nbytes / 2


def test_solve_nullspace_zero_system_is_full_space():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 0)
    assert not np.any(dense_function_constraints(cfg, system.trig))
    assert solve_nullspace(system).shape[0] == system.ncols == 2


def test_solve_nullspace_full_rank_system_is_empty():
    system = ConstraintSystem(trig=TrigSpace.build(1, 0), symbols=np.eye(2)[None],
                              frame=np.eye(2))
    assert system.nrows == system.ncols == 2
    assert solve_nullspace(system).shape[0] == 0


def test_constants_embed():
    for name, m, d in CONFIGS:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        for vec in constant_function_vectors(cfg, system.trig):
            assert system.residual_inf(vec) <= 1e-10


def test_socle_embedding_is_in_nullspace():
    # basic trig polynomial times a socle element solves the system exactly
    rng = np.random.default_rng(2)
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1),
                       ("trunc:4", 1, 1)]:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        trig = system.trig
        tmask = trig.transversal_mask(m)
        for s in socle_basis(cfg.algebra, radical_basis(cfg.algebra)):
            f = rng.standard_normal(trig.size) * tmask
            vec = socle_embedding_vector(cfg, trig, s, f)
            assert system.residual_inf(vec) <= 1e-9 * (1 + np.abs(vec).max())


def test_verify_constancy_passes_on_solutions():
    for name, m, d in CONFIGS:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_constancy(solutions, cfg, system.trig)
        assert rep.passed, rep.render()
        assert rep.data["NULLSPACE_DIM"] == solutions.shape[0]


def test_verify_constancy_flags_injected_counterexample():
    cfg = make_torus(preset("dual"), 1)
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
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_socle_decomposition(solutions, cfg, system.trig)
        assert rep.passed, (name, d, rep.render())


def test_nonconstant_dimension_ratio_is_socle_dim():
    # (dim - n) / (transversal trig functions - 1) equals the socle dimension
    for name in ("dual", "trunc:3", "square:2"):
        cfg = make_torus(preset(name), 1)
        ratios = []
        for d in (1, 2):
            system = assemble_function_constraints(cfg, d)
            dim = solve_nullspace(system).shape[0]
            ratios.append((dim - cfg.n) / ((2 * d + 1) ** cfg.m - 1))
        assert ratios[0] == ratios[1] == len(cfg.info.socle)


def test_min_leaf_on_solutions():
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1), ("square:2", 1, 1)]:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        rep = verify_min_leaf_all(solutions, cfg, system.trig, grid=32)
        assert rep.passed, rep.render()
        assert rep.data["GRAD_MAX"] <= 1e-8
        assert system.residual_inf(solutions) <= 1e-8


def test_min_leaf_constant_solution_exact():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_function_constraints(cfg, 1)
    const = constant_function_vectors(cfg, system.trig)[0]
    rep = verify_min_leaf(const, cfg, system.trig, grid=8)
    assert rep.passed
    assert rep.data["GRAD_MAX"] == 0.0
    assert rep.data["G_VARIATION"] == 0.0
    assert system.residual_inf(const) == 0.0


def test_min_leaf_flags_injected_nondifferentiable():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    rep = verify_min_leaf(bad, cfg, trig, grid=32)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    # gradient vanishes on the critical leaf theta_1 = 0, exactly in the bound
    # (its one frequency is constant along the leaf), but g is not constant
    # and the constraint rows reject the function
    assert failed == {"real_part_variation"}
    assert rep.data["GRAD_MAX"] == 0.0 and rep.data["G_VARIATION"] == 2.0
    assert system.residual_inf(bad) > 1e-8


def _mixed_stack(system, seed=11):
    """Solutions, then seeded sparse and dense non-solutions."""
    rng = np.random.default_rng(seed)
    noise = np.zeros((4, system.ncols))
    for row in noise:
        picked = rng.choice(system.ncols, size=min(6, system.ncols), replace=False)
        row[picked] = rng.standard_normal(len(picked))
    dense = rng.standard_normal((2, system.ncols))
    return np.vstack([solve_nullspace(system), noise, dense])


MIN_LEAF_KEYS = ("MIN_LEAF_AVG", "GRAD_MAX", "G_VARIATION")


def _assert_bounds(bound, sample, atol, same_verdict=True, tol=1e-8):
    """A closed-form bound against the reference's values sampled on the
    lattices, which are lower bounds of the true maximum: NaN where they are,
    never below them beyond round-off, and, unless the lattices are too
    coarse to see the function, the same pass or fail at tol."""
    bound, sample = np.asarray(bound), np.asarray(sample)
    assert np.array_equal(np.isnan(bound), np.isnan(sample))
    assert not np.any(bound < sample * (1 - 1e-12) - atol), (bound, sample)
    assert not same_verdict or np.array_equal(bound <= tol, sample <= tol), (bound, sample)


def _basic_real_parts(U, cfg, trig):
    """Rows of a (S, n, B) stack whose real part has only frequencies with
    k'' = 0, constant along every leaf."""
    return ~U[:, 0, ~trig.transversal_mask(cfg.m)].any(axis=1)


def _assert_min_leaf_matches(got, stack, cfg, trig, grid, refs, atol, same_verdict=True):
    """``_min_leaf``'s arrays against the per-solution references: qmin and
    avg on live rows, which alone get a leaf (-1 and NaN on flat ones); grad
    and variation on every row as bounds of the sampled values, and grad
    equal to them where the real part is constant along the leaf's
    directions. ``_leaf_positions``, the leaf search both min-leaf checks
    share, gives every row's leaf, flat ones included."""
    qmin, avg, grad, variation = got
    U = stack.reshape(len(stack), cfg.n, trig.size)
    live = U[:, 0, 1:].any(axis=1)
    ref = {key: np.array([r[key] for r in refs]) for key in ("MIN_LEAF_INDEX", *MIN_LEAF_KEYS)}
    leaf_q, leaf_avg = torus._leaf_positions(U, trig, cfg.m, grid)
    assert list(leaf_q) == list(ref["MIN_LEAF_INDEX"])
    assert list(qmin[live]) == list(ref["MIN_LEAF_INDEX"][live])
    assert np.all(qmin[~live] == -1) and np.isnan(avg[~live]).all()
    close = functools.partial(assert_allclose, rtol=1e-12, atol=atol)
    close(leaf_avg, ref["MIN_LEAF_AVG"])
    close(avg[live], ref["MIN_LEAF_AVG"][live])
    _assert_bounds(grad, ref["GRAD_MAX"], atol, same_verdict)
    _assert_bounds(variation, ref["G_VARIATION"], atol, same_verdict)
    basic = _basic_real_parts(U, cfg, trig)
    close(grad[basic], ref["GRAD_MAX"][basic])


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_min_leaf_matches_reference(name, m, d):
    # solutions and seeded sparse and dense non-solutions, checked one by one
    # and as one stack against the per-solution check evaluated on each leaf
    # directly; dense real parts mix cos and sin in every pair. The leaf is
    # the reference's, and the gradient and variation bound its samples. The
    # same rows follow with every real-part frequency k'' != 0 dropped: their
    # gradient is constant along the leaf, and its bound is its value there
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    trig = system.trig
    U = np.tile(_mixed_stack(system).reshape(-1, cfg.n, trig.size), (2, 1, 1))
    U[len(U) // 2:, 0, ~trig.transversal_mask(m)] = 0.0
    stack = U.reshape(len(U), -1)
    refs = [reference_min_leaf(u, cfg, trig).data for u in stack]
    for u, ref in zip(stack, refs):
        got = verify_min_leaf(u, cfg, trig).data
        assert got["MIN_LEAF_INDEX"] == ref["MIN_LEAF_INDEX"]
        assert_allclose(got["MIN_LEAF_AVG"], ref["MIN_LEAF_AVG"], rtol=1e-12, atol=1e-15)
        for key in ("GRAD_MAX", "G_VARIATION"):
            _assert_bounds(got[key], ref[key], 1e-15)

    result = torus._min_leaf(stack, cfg, trig, 32)
    _assert_min_leaf_matches(result, stack, cfg, trig, 32, refs, 1e-15)
    basic = _basic_real_parts(U, cfg, trig)
    assert basic[len(U) // 2:].all()
    assert np.count_nonzero(result[2][basic] > 1e-8) >= (2 if d > 0 else 0)
    # the residual of the stack, as the CLI reports it, is the worst row's
    assert_allclose(system.residual_inf(stack), max(map(system.residual_inf, stack)),
                    rtol=1e-12, atol=1e-15)


def test_min_leaf_tie_goes_to_smallest_row_major_index():
    # g1 = cos(theta_1) is smallest on the whole line theta_1 = pi: the
    # 32 lattice points (16, j) tie exactly, and (16, 0) has index 16 * 32
    cfg = make_torus(preset("dual"), 2)
    trig = assemble_function_constraints(cfg, 1).trig
    u = np.zeros(cfg.n * trig.size)
    pair = next(p for p in range(trig.npairs)
                if tuple(trig.freqs[p]) == (1, 0, 0, 0))
    u[trig.size + 1 + 2 * pair] = 1.0
    for rep in (verify_min_leaf(u, cfg, trig), reference_min_leaf(u, cfg, trig)):
        assert rep.data["MIN_LEAF_INDEX"] == 512
        assert rep.data["MIN_LEAF_AVG"] == -1.0


def test_min_leaf_all_flags_injected_among_solutions():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    solutions = solve_nullspace(system)
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    stack = np.vstack([solutions[:3], bad, solutions[3:]])
    rep = verify_min_leaf_all(stack, cfg, trig)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"real_part_variation"}
    assert rep.data["GRAD_MAX"] == 0.0 and rep.data["G_VARIATION"] == 2.0
    assert verify_min_leaf_all(solutions, cfg, trig).passed
    assert system.residual_inf(stack) > 1e-8 >= system.residual_inf(solutions)


def test_min_leaf_all_builds_no_design_matrix(monkeypatch):
    calls = []
    values = TrigSpace.values

    def counted(self, points):
        calls.append(len(points))
        return values(self, points)

    monkeypatch.setattr(TrigSpace, "values", counted)
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_function_constraints(cfg, 2)
    solutions = solve_nullspace(system)
    assert len(solutions) == 7
    for stack in (solutions[:1], solutions, np.vstack([solutions] * 3)):
        assert verify_min_leaf_all(stack, cfg, system.trig).passed
    assert calls == []


def test_min_leaf_tie_tolerance():
    # g1 = 0.037 cos 2x + 0.717 cos 3x is even, so the lattice points 5 and 27
    # of 32 have the same average in exact arithmetic; through cos and sin of
    # the lattice points the average at 27 is one ulp smaller, and the tie
    # rule still picks 5
    cfg = make_torus(preset("dual"), 1)
    trig = assemble_function_constraints(cfg, 3).trig
    u = np.zeros(cfg.n * trig.size)
    for k, c in (((2, 0), 0.037), ((3, 0), 0.717)):
        pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == k)
        u[trig.size + 1 + 2 * pair] = c
    for rep in (verify_min_leaf(u, cfg, trig), reference_min_leaf(u, cfg, trig)):
        assert rep.data["MIN_LEAF_INDEX"] == 5
        assert_allclose(rep.data["MIN_LEAF_AVG"], 0.037 * np.cos(5 * np.pi / 8)
                        + 0.717 * np.cos(15 * np.pi / 16), rtol=1e-14)


@pytest.mark.parametrize("name,m,d", [("dual", 1, 3), ("trunc:3", 1, 2),
                                      ("square:2", 1, 1), ("dual", 2, 1)])
def test_min_leaf_aliased_lattices_match_reference(name, m, d):
    # grids with fewer points than the 2d+1 frequencies per axis fold
    # frequencies onto each other; the leaf must still be exact, and the
    # bounds hold against references sampling 1 to 5 transversal and 1 or 2
    # leaf points, too few to share the verdict (one point has no variation)
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    trig = system.trig
    stack = _mixed_stack(system)
    for grid, leaf_grid in itertools.product((1, 2, 3, 5), (1, 2)):
        refs = [reference_min_leaf(u, cfg, trig, grid, leaf_grid).data for u in stack]
        _assert_min_leaf_matches(torus._min_leaf(stack, cfg, trig, grid), stack, cfg, trig,
                                 grid, refs, 1e-13, same_verdict=False)


def test_min_leaf_chunks_do_not_change_results(monkeypatch):
    cfg = make_torus(preset("trunc:3"), 2)
    system = assemble_function_constraints(cfg, 1)
    stack = _mixed_stack(system)
    whole = torus._min_leaf(stack, cfg, system.trig, 128)
    # two live solutions per chunk of 128^2 transversal values each; the five
    # live rows take three chunks
    monkeypatch.setattr(torus, "LATTICE_BUDGET", 2 * 128**2)
    assert torus.lattice_chunks(cfg, 128) == 2
    assert np.count_nonzero(whole[0] >= 0) == 5
    chunked = torus._min_leaf(stack, cfg, system.trig, 128)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b, equal_nan=True)  # flat rows' avg is NaN


def _count_lattice_rows(monkeypatch):
    """Stacks checked by ``_min_leaf`` and rows sent to ``_lattice_values``,
    counted by lattice size."""
    stacks, sent = [], collections.Counter()
    min_leaf, values = torus._min_leaf, torus._lattice_values

    def spied(solutions, cfg, trig, grid):
        stacks.append((np.asarray(solutions), cfg, trig, grid))
        return min_leaf(solutions, cfg, trig, grid)

    def counted(const, z, freqs, degree, size):
        sent[size] += len(z)
        return values(const, z, freqs, degree, size)

    monkeypatch.setattr(torus, "_min_leaf", spied)
    monkeypatch.setattr(torus, "_lattice_values", counted)
    return stacks, sent


def _expected_lattice_rows(stacks):
    """For every live solution, whose real part has a nonzero non-constant
    coefficient: its e1 row on the transversal lattice. Flat solutions send
    nothing, and no solution sends a leaf lattice."""
    expected = collections.Counter()
    for solutions, cfg, trig, grid in stacks:
        U = solutions.reshape(-1, cfg.n, trig.size)
        expected[grid] += int(np.count_nonzero(U[:, 0, 1:].any(axis=1)))
    return +expected


def test_flat_real_parts_never_reach_the_lattice(monkeypatch, capsys):
    # the verify golden ladder through the CLI, whose solutions all have
    # constant real parts, then seeded non-solutions on the same tori
    stacks, sent = _count_lattice_rows(monkeypatch)
    runs = 0
    for name, m, d, grid in itertools.product(("dual", "trunc:3", "square:2"),
                                              (1, 2), (0, 1, 2), (32, 7)):
        code = main(["verify", "--preset", name, "--m", str(m), "--degree", str(d),
                     "--grid", str(grid)])
        capsys.readouterr()
        if code == 5:  # over the column cap: no solutions to check
            continue
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        verify_min_leaf_all(_mixed_stack(system), cfg, system.trig, grid)
        runs += 1
    assert len(stacks) == 2 * runs > 0
    assert sent == _expected_lattice_rows(stacks)
    assert sent[32] > 0 and sent[7] > 0

    stacks.clear()
    sent.clear()
    assert main(["verify", "--preset", "trunc:3", "--m", "2", "--degree", "1"]) == 0
    assert len(stacks) == 1 and len(stacks[0][0]) > 0
    assert sent == _expected_lattice_rows(stacks) == {}


def test_verify_sends_no_row_to_the_lattice(monkeypatch, capsys):
    # every solution is flat, so neither the verify golden ladder nor dual
    # m=4 d=1 (82 solutions) evaluates a lattice row; exit codes as before
    sent = []
    values = torus._lattice_values

    def counted(const, z, freqs, degree, size):
        sent.append(len(z))
        return values(const, z, freqs, degree, size)

    monkeypatch.setattr(torus, "_lattice_values", counted)
    golden = Path(__file__).parent / "golden" / "verify_presets.txt"
    lines = golden.read_text(encoding="utf-8").splitlines()
    runs = [(a[2:].split(), int(b.split()[-1])) for a, b in
            zip([x for x in lines if x.startswith("# verify ")],
                [x for x in lines if x.startswith("# exit ")])]
    runs.append(("verify --preset dual --m 4 --degree 1".split(), 0))
    assert len(runs) == 37
    for argv, code in runs:
        assert main(argv) == code, argv
        capsys.readouterr()
    assert sum(sent) == 0
    # the spy sees the rows of a live stack
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 1)
    verify_min_leaf_all(_mixed_stack(system), cfg, system.trig)
    assert sum(sent) > 0


FLAT_CONFIGS = [("dual", 1, 1), ("trunc:3", 1, 2), ("square:2", 1, 1), ("dual", 2, 1)]


@functools.cache
def _solved(name, m, d):
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    return cfg, system.trig, solve_nullspace(system)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=st.sampled_from(FLAT_CONFIGS), seed=st.integers(0, 2**32 - 1),
       consts=st.lists(st.sampled_from([0.0, -0.0, 1e300, -1e300]) | st.floats(-1e6, 1e6),
                       min_size=2, max_size=4),
       nlive=st.integers(1, 5))
def test_flat_rows_skip_the_lattice_exactly(config, seed, consts, nlive):
    # solutions, constant-only real parts, dense rows and one NaN real-part
    # coefficient, shuffled; the live rows, the NaN one among them, go through
    # chunks of three, every live row's leaf matches the reference, and its
    # gradient and variation bound the reference's
    cfg, trig, solutions = _solved(*config)
    rng = np.random.default_rng(seed)
    picked = solutions[rng.choice(len(solutions), size=min(3, len(solutions)),
                                  replace=False)]
    flat = rng.standard_normal((len(consts), cfg.n, trig.size))
    flat[:, 0] = 0.0
    flat[:, 0, 0] = consts
    nan = rng.standard_normal((1, cfg.n, trig.size))
    nan[0, 0, rng.integers(1, trig.size)] = np.nan
    stack = np.vstack([picked, flat.reshape(len(consts), -1),
                       rng.standard_normal((nlive, cfg.n * trig.size)),
                       nan.reshape(1, -1)])
    order = rng.permutation(len(stack))
    stack = stack[order]
    is_flat = ~stack.reshape(len(stack), cfg.n, trig.size)[:, 0, 1:].any(axis=1)
    is_nan = order == len(stack) - 1
    quiet = is_flat | is_nan  # all but the dense rows, which fail on their own

    refs = [reference_min_leaf(u, cfg, trig).data for u in stack]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "LATTICE_BUDGET", 3 * 32**cfg.m)
        assert torus.lattice_chunks(cfg, 32) == 3 < len(stack)
        qmin, avg, grad, variation = torus._min_leaf(stack, cfg, trig, 32)
        assert verify_min_leaf_all(stack[is_flat], cfg, trig).passed
        rep = verify_min_leaf_all(stack[quiet], cfg, trig)
    _assert_min_leaf_matches((qmin, avg, grad, variation), stack, cfg, trig, 32, refs, 1e-15)
    assert np.isnan(grad[is_nan]).all() and np.isnan(variation[is_nan]).all()
    assert np.all(grad[is_flat] == 0.0) and np.all(variation[is_flat] == 0.0)
    assert {c.name for c in rep.checks if not c.passed} == {"min_leaf_gradient",
                                                             "real_part_variation"}


def test_lattice_budget_refuses_oversized_lattices():
    cfg = make_torus(preset("dual"), 2)
    assert torus.lattice_chunks(cfg, 32) == 2**22 // 32**2
    assert torus.lattice_chunks(cfg, 2**11) == 1  # 2^22 values for one solution fit
    with pytest.raises(SizeCapExceeded):
        torus.lattice_chunks(cfg, 2**11 + 1)
    # no leaf lattice: dual m=8 at grid 2 is 2^8 values per solution
    assert torus.lattice_chunks(make_torus(preset("dual"), 8), 2) == 2**14
    trig = assemble_function_constraints(cfg, 1).trig
    with pytest.raises(SizeCapExceeded):
        verify_min_leaf_all(np.zeros((1, cfg.n * trig.size)), cfg, trig, grid=10**5)


def test_size_checks_never_build_or_print_huge_counts():
    # far past the limit: refused on logarithms, 2 * 3^(2*10^6) never built
    cfg = make_torus(preset("dual"), 10**6)
    with pytest.raises(SizeCapExceeded) as exc:
        torus.capped_trig_space(cfg, 1, cfg.n, 20000)
    assert str(exc.value) == "more than 2^79 columns exceed the cap 20000"
    with pytest.raises(SizeCapExceeded) as exc:
        torus.lattice_chunks(cfg, 32)
    assert str(exc.value) == "more than 2^87 lattice values per solution exceed the budget 4194304"
    # near a cap of 4296 digits: compared exactly, but 2 * 3^9002 has more
    # digits than Python prints, so it is named by its bit length
    cfg = make_torus(preset("dual"), 4501)
    with pytest.raises(SizeCapExceeded) as exc:
        torus.capped_trig_space(cfg, 1, cfg.n, 3**9002)
    assert str(exc.value).startswith("more than 2^14268 columns exceed the cap 1110541996")
    # small counts are exact, and a count equal to the cap fits
    cfg = make_torus(preset("dual"), 1)
    assert torus.capped_trig_space(cfg, 1, 2, 18).size == 9
    with pytest.raises(SizeCapExceeded) as exc:
        torus.capped_trig_space(cfg, 1, 2, 17)
    assert str(exc.value) == "18 columns exceed the cap 17"


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_vectorized_checks_match_per_solution_loop(name, m, d):
    # reports bitwise, violation texts included, on stacks with more than
    # eight violating rows once there are non-constant functions (d > 0)
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    stack = np.vstack([_mixed_stack(system, seed) for seed in range(1, 6)])
    data = verify_constancy(stack, cfg, system.trig).data
    assert ("REAL_PART_VIOLATION[7]" in data) == (d > 0)
    for got, ref in ((verify_constancy, reference_constancy),
                     (verify_socle_decomposition, reference_socle_decomposition)):
        for rows in (stack, stack[:1], solve_nullspace(system)):
            assert (got(rows, cfg, system.trig).render()
                    == ref(rows, cfg, system.trig).render())


def test_solutions_pass_pointwise_defect():
    # cross-module consistency: trig solutions are differentiable over A
    rng = np.random.default_rng(5)
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1)]:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        solutions = solve_nullspace(system)
        for u in solutions:
            F = torus_value_map(u, cfg, system.trig)
            for _ in range(10):
                X = rng.uniform(0, 2 * np.pi, size=(m, cfg.n))
                assert adiff_defect(F, X, cfg.algebra) <= 1e-5


def ladder_systems():
    """Every function system of the ``verify`` golden ladder and every form and
    function system of the ``forms`` ladder under the column cap."""
    runs = [("functions", name, m, d) for name in ("dual", "trunc:3", "square:2")
            for m in (1, 2) for d in (0, 1, 2)]
    runs += [(kind, name, m, d) for name, m, d in FORMS_LADDER for kind in ASSEMBLERS]
    for kind, name, m, d in runs:
        try:
            yield ASSEMBLERS[kind][0](make_torus(preset(name), m), d)
        except SizeCapExceeded:
            continue


def test_solve_nullspace_rows_sit_on_one_trig_index():
    # each null vector v of mode p is one row on trig index 0 (p = 0) or two
    # rows, v on cos (2p - 1) then v on sin (2p); rows mode-major, lead positive
    for system in ladder_systems():
        sol = solve_nullspace(system)
        U = sol.reshape(len(sol), system.frame.shape[0], system.trig.size)
        support = U.any(axis=1)
        assert np.all(support.sum(axis=1) == 1)
        t = support.argmax(axis=1)
        vecs = U[np.arange(len(U)), :, t]
        assert np.all(np.diff((t + 1) // 2) >= 0)
        cos, sin = np.flatnonzero(t % 2 == 1), np.flatnonzero((t > 0) & (t % 2 == 0))
        assert np.array_equal(sin, cos + 1) and np.array_equal(t[sin], t[cos] + 1)
        assert np.array_equal(vecs[cos], vecs[sin])
        assert np.all(vecs[np.arange(len(vecs)), np.abs(vecs).argmax(axis=1)] > 0)


def test_solver_is_deterministic():
    cfg = make_torus(preset("trunc:3"), 1)
    a = solve_nullspace(assemble_function_constraints(cfg, 1))
    b = solve_nullspace(assemble_function_constraints(cfg, 1))
    assert np.array_equal(a, b)


def _null_rows(system, tol):
    """Rows of the solution stack, from the full-stack rank decisions."""
    rank, _ = linalg._svd_rank(system.symbols, tol, compute_uv=False)
    return int(((system.symbols.shape[2] - rank) * np.where(np.arange(len(rank)), 2, 1)).sum())


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-3, 1.0])
def test_solve_nullspace_is_bitwise_the_full_stack_svd(tol):
    # the Gram screen keeps every mode that may hold the largest value, so
    # ref, the rank decisions and vh are the full-stack SVD's bit for bit.
    # Stacks of more than 32 MB (every direction null at tol 1) are not
    # formed; there the screen must spare no mode, so the SVD sees them all.
    compared = 0
    for system in ladder_systems():
        if _null_rows(system, tol) * system.ncols * 8 > 32e6:
            assert tol == 1.0 and not linalg._full_rank_modes(system.symbols, tol).any()
            continue
        _assert_bitwise(solve_nullspace(system, tol), reference_solve_nullspace(system, tol))
        compared += 1
    assert compared == (106 if tol < 1 else 86)


MODE_KINDS = ["zero", "full", "deficient", "above_cut", "below_cut"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from(MODE_KINDS), min_size=1, max_size=8),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       tol=st.sampled_from([0.0, 1e-8, 1e-3, 0.3, 1.0]),
       scale=st.sampled_from([1.0, 1e-160, 1e160]), seed=st.integers(0, 2**32 - 1))
def test_solve_nullspace_on_mixed_stacks_is_the_full_stack_svd(kinds, shape, tol, scale, seed):
    # mode 0 is well conditioned and holds the largest value 1; a "cut" mode
    # puts its smallest value at tol * 1 * (1 +- 1e-6), so it counts only
    # against the stack's largest value and not against a smaller one
    rng = np.random.default_rng(seed)
    rows, cols = shape
    k = min(rows, cols)
    symbols = np.empty((len(kinds) + 1, rows, cols))
    for p, kind in enumerate(["ref"] + kinds):
        if kind == "ref":
            sigma = np.r_[1.0, rng.uniform(0.5, 1.0, k - 1)]
        else:
            sigma = 10 ** rng.uniform(-3, -0.1, k) * (kind != "zero")
        if kind == "deficient":
            sigma[-1] = 0.0
        elif kind.endswith("_cut"):
            sigma[-1] = tol * (1 + 1e-6 if kind == "above_cut" else 1 - 1e-6)
        u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, k)))[0]
        symbols[p] = (u * sigma) @ v.T
    # one trig coordinate of degree len(kinds) has len(kinds) + 1 modes
    system = ConstraintSystem(TrigSpace.build(1, len(kinds)), symbols * scale, np.eye(cols))
    _assert_bitwise(solve_nullspace(system, tol), reference_solve_nullspace(system, tol))


def _svd_modes(monkeypatch, system):
    """Modes that ``solve_nullspace`` passes to ``np.linalg.svd``."""
    modes, real_svd = [], np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        modes.append(len(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    got = solve_nullspace(system)
    monkeypatch.setattr(np.linalg, "svd", real_svd)
    _assert_bitwise(got, reference_solve_nullspace(system))
    return sum(modes)


def test_gram_screen_spares_the_svd_most_modes(monkeypatch):
    # trunc:3 at m=2, d=1 has 365 modes; 5 are singular, and the rest of the
    # modes that reach the SVD may hold the stack's largest value
    cfg = make_torus(preset("trunc:3"), 2)
    assert 5 <= _svd_modes(monkeypatch, assemble_function_constraints(cfg, 1)) <= 9
    assert 5 <= _svd_modes(monkeypatch, assemble_form_constraints(cfg, 1)) <= 37


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_gram_out_of_range_sends_the_whole_stack_to_the_svd(monkeypatch, scale):
    # 1e160 overflows the Gram, which is then not finite; at 1e-160 its
    # entries underflow, and the tiny term of err outweighs every eigenvalue
    system = assemble_function_constraints(make_torus(preset("trunc:3"), 2), 1)
    system.symbols = system.symbols * scale
    assert _svd_modes(monkeypatch, system) == len(system.symbols)


def test_size_cap():
    cfg = make_torus(preset("trunc:4"), 1)
    with pytest.raises(SizeCapExceeded):
        assemble_function_constraints(cfg, 6)
    assemble_function_constraints(cfg, 6, cap=10**7)  # explicit override works
