"""Spectral constraint systems on tori: assembly, nullspaces, suite checks."""

import functools
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from localalg.algebra import preset, radical_basis
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
    solution_rows,
    solve_nullspace,
    verify_constancy,
    verify_min_leaf,
    verify_min_leaf_all,
    verify_socle_decomposition,
)

from util import (
    FORMS_LADDER,
    commutator_rows,
    constant_function_vectors,
    dense_form_constraints,
    dense_function_constraints,
    dense_min_leaf,
    make_torus,
    reference_constancy,
    reference_min_leaf,
    reference_residual_inf,
    reference_socle_decomposition,
    reference_solve_nullspace,
    reference_trig_freqs,
    scatter_rows,
    socle_basis,
    socle_embedding_vector,
    split_rows,
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
    dense = scatter_rows(solutions, system.trig.size)
    assert_allclose(dense @ dense.T, np.eye(want), atol=1e-12)
    for q in range(want):
        assert system.residual_inf(solutions[q:q + 1]) <= 1e-12


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_function_symbols_are_commutator_rows_times_frequencies(name, m, d):
    # assembled slot by slot, the symbols are the dense A-linearity rows
    # times k tensor I_n bit for bit
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    k_tensor_id = np.kron(system.trig.mode_freqs()[:, :, None], np.eye(cfg.n))
    assert np.array_equal(system.symbols, commutator_rows(cfg) @ k_tensor_id)


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
    sol = scatter_rows(solve_nullspace(system), B)
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
        assert abs(system.residual_inf(split_rows(u, B)) - np.abs(M @ u).max()) <= 1e-12
    # the rows of an (S, ncols) stack give the largest violation of any of them
    stack = rng.standard_normal((4, nsym * B)) @ lift.T
    res = system.residual_inf(split_rows(stack, B))
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
    block_sol = scatter_rows(solve_nullspace(system), system.trig.size)
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
        assert abs(system.residual_inf(split_rows(u, system.trig.size))
                   - np.abs(M @ u).max()) <= 1e-12


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
    system, solutions = _residual_system(kind)
    assert system.residual_inf(solutions[:0]) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["function", "form"]), seed=st.integers(0, 2**32 - 1),
       rows=st.lists(st.sampled_from(["solution", "one_index", "dense", "zero"]), max_size=6),
       specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
def test_residual_inf_matches_dense_reference(kind, seed, rows, specials):
    # dense rows split into one row per trig index they touch; the reference
    # multiplies every mode's symbol by every column, so zero columns must add
    # nothing and NaN must survive
    system, solutions = _residual_system(kind)
    B = system.trig.size
    solutions = scatter_rows(solutions, B)
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(rows), system.frame.shape[0], B))
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
        got = system.residual_inf(split_rows(stack, B))
        want = reference_residual_inf(system, stack)
    # a few ulps; NaN where the reference is NaN, and only there
    assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("name,m,d", [
    ("dual", 2, 2), ("trunc:3", 2, 1), ("square:2", 2, 1), ("trunc:3", 1, 2),
])
def test_residual_inf_allocates_a_fraction_of_the_stack(name, m, d):
    # the verify_leaf benchmark configs: the dense product over every mode
    # took 10 to 26 times the dense solution stack's bytes. The gathered
    # symbols, one (rows, symbol columns) block per solution, and a few array
    # headers read 0.29 times the 21 kB dense stack of trunc:3 m=1 d=2, 0.08
    # on the others. The bound is half the dense stack's bytes, S * ncols * 8 / 2
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
    assert peak <= len(solutions) * system.ncols * 8 / 2


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
            assert system.residual_inf(split_rows(vec, system.trig.size)) <= 1e-10


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
            residual = system.residual_inf(split_rows(vec, trig.size))
            assert residual <= 1e-9 * (1 + np.abs(vec).max())


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
    rep = verify_constancy(split_rows(bad, trig.size), cfg, trig)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "real_part_constant" in failed
    assert any("freq=(1, 0)" in str(v) for k, v in rep.data.items()
               if k.startswith("REAL_PART_VIOLATION"))
    # a constant passes trivially
    const = constant_function_vectors(cfg, trig)[0]
    assert verify_constancy(split_rows(const, trig.size), cfg, trig).passed


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


def _one_row(u, trig):
    """The ``solution_rows`` row of a coefficient vector on one trig index."""
    rows = split_rows(u, trig.size)
    assert len(rows) == 1
    return rows[0]


def _leaf_index(x, grid):
    """Row-major index on the grid^m lattice of each row of leaf digits."""
    return np.ravel_multi_index(tuple(x.T), (grid,) * x.shape[1])


def test_min_leaf_constant_solution_exact():
    cfg = make_torus(preset("trunc:3"), 1)
    system = assemble_function_constraints(cfg, 1)
    const = constant_function_vectors(cfg, system.trig)[0]
    rep = verify_min_leaf(_one_row(const, system.trig), cfg, system.trig, grid=8)
    assert rep.passed
    assert rep.data["GRAD_MAX"] == 0.0
    assert rep.data["G_VARIATION"] == 0.0
    assert system.residual_inf(split_rows(const, system.trig.size)) == 0.0


def test_min_leaf_flags_injected_nondifferentiable():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    rep = verify_min_leaf(_one_row(bad, trig), cfg, trig, grid=32)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    # gradient vanishes on the critical leaf theta_1 = 0, exactly in the bound
    # (its one frequency is constant along the leaf), but g is not constant
    # and the constraint rows reject the function
    assert failed == {"real_part_variation"}
    assert rep.data["GRAD_MAX"] == 0.0 and rep.data["G_VARIATION"] == 2.0
    assert system.residual_inf(split_rows(bad, trig.size)) > 1e-8


def _mixed_stack(system, seed=11):
    """Solutions, then seeded sparse and dense non-solutions, as a dense stack."""
    rng = np.random.default_rng(seed)
    noise = np.zeros((4, system.ncols))
    for row in noise:
        picked = rng.choice(system.ncols, size=min(6, system.ncols), replace=False)
        row[picked] = rng.standard_normal(len(picked))
    dense = rng.standard_normal((2, system.ncols))
    return np.vstack([scatter_rows(solve_nullspace(system), system.trig.size), noise, dense])


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


def _assert_min_leaf_matches(got, rows, cfg, trig, grid, refs, atol, same_verdict=True):
    """``_leaf_bounds`` on ``solution_rows`` against the per-row references:
    the leaf's index and average on every row, flat ones included; grad and
    variation as bounds of the sampled values, and grad equal to them where
    the real part has k'' = 0 and so is constant along the leaf's
    directions."""
    x, avg, grad, variation = got
    ref = {key: np.array([r[key] for r in refs]) for key in ("MIN_LEAF_INDEX", *MIN_LEAF_KEYS)}
    assert list(_leaf_index(x, grid)) == list(ref["MIN_LEAF_INDEX"])
    close = functools.partial(assert_allclose, rtol=1e-12, atol=atol)
    close(avg, ref["MIN_LEAF_AVG"])
    _assert_bounds(grad, ref["GRAD_MAX"], atol, same_verdict)
    _assert_bounds(variation, ref["G_VARIATION"], atol, same_verdict)
    basic = trig.transversal_mask(cfg.m)[rows["index"]]
    close(grad[basic], ref["GRAD_MAX"][basic])


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_min_leaf_matches_reference(name, m, d):
    # solutions and seeded sparse and dense non-solutions, split by trig
    # index, against the per-solution check evaluated on each leaf directly:
    # the leaf is the reference's, and the gradient and variation bound its
    # samples; verify_min_leaf reports one row of the same arrays. The same
    # rows follow with the e1 part dropped: they sit on leaf 0, where a real
    # part on a sin index is not critical
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    trig = system.trig
    stack = _mixed_stack(system)
    no_e1 = split_rows(stack, trig.size)
    no_e1["vec"][:, 1] = 0.0
    rows = np.concatenate([split_rows(stack, trig.size), no_e1])
    refs = [reference_min_leaf(u, cfg, trig).data for u in scatter_rows(rows, trig.size)]
    got = torus._leaf_bounds(rows, cfg, trig, 32)
    _assert_min_leaf_matches(got, rows, cfg, trig, 32, refs, 1e-15)
    # rows on a transversal index have k'' = 0, where grad must equal the
    # reference; enough of them must be live for that equality to bite
    basic = trig.transversal_mask(m)[rows["index"]] & (rows["index"] != 0)
    assert np.count_nonzero(got[2][basic] > 1e-8) >= (2 if d > 0 else 0)
    for i in range(0, len(rows), 7):
        rep = verify_min_leaf(rows[i], cfg, trig).data
        assert rep["MIN_LEAF_INDEX"] == _leaf_index(got[0][i:i + 1], 32)[0]
        assert [rep[key] for key in MIN_LEAF_KEYS] == [got[1][i], got[2][i], got[3][i]]
    # the residual of the stack, as the CLI reports it, is the worst row's
    B = trig.size
    assert_allclose(system.residual_inf(split_rows(stack, B)),
                    max(system.residual_inf(split_rows(u, B)) for u in stack),
                    rtol=1e-12, atol=1e-15)


def _injected_rows(rows, seed=5):
    """Copies of the first row on trig index 0 and of two seeded rows off it,
    with NaN, +-inf or +-1e300 put in the real part, the e1 component, or
    both."""
    off = rows[rows["index"] != 0]
    picked = off[np.random.default_rng(seed).integers(len(off), size=min(2, len(off)))]
    base = np.concatenate([rows[rows["index"] == 0][:1], picked])
    out = []
    for value, comps in itertools.product((np.nan, np.inf, -np.inf, 1e300, -1e300),
                                          ([0], [1], [0, 1])):
        out.append(base.copy())
        out[-1]["vec"][:, comps] = value
    return np.concatenate(out)


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_closed_form_matches_dense_oracle(name, m, d):
    # the dense lattice check of tests/util.py, on every row of the mixed
    # stack split by trig index and on injected non-finite and huge rows, at
    # grids that alias the 2d+1 frequencies per axis and grids that
    # do not: the leaf, gradient and variation bit for bit, the average to
    # round-off; a non-finite e1 coefficient gives leaf 0 and average NaN
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    trig = system.trig
    rows = split_rows(_mixed_stack(system), trig.size)
    rows = np.concatenate([rows, _injected_rows(rows)])
    finite = np.isfinite(rows["vec"][:, 1])
    with np.errstate(invalid="ignore"):
        for grid in (1, 2, 3, 7, 32):
            x, avg, grad, variation = torus._leaf_bounds(rows, cfg, trig, grid)
            qmin, want_avg, want_grad, want_variation = dense_min_leaf(
                scatter_rows(rows, trig.size), cfg, trig, grid)
            assert np.array_equal(_leaf_index(x, grid), qmin)
            assert np.array_equal(grad, want_grad, equal_nan=True)
            assert np.array_equal(variation, want_variation, equal_nan=True)
            assert_allclose(avg[finite], want_avg[finite], rtol=1e-12, atol=0)
            assert np.all(qmin[~finite] == 0) and np.isnan(avg[~finite]).all()
    nan_c = np.isnan(rows["vec"][:, 0]) & (rows["index"] != 0)
    assert nan_c.any() == (d > 0)
    assert np.isnan(variation[nan_c]).all() and np.isnan(grad[nan_c]).all()


def test_min_leaf_tie_goes_to_smallest_row_major_index():
    # g1 = cos(theta_1) is smallest on the whole line theta_1 = pi: the
    # 32 lattice points (16, j) tie exactly, and (16, 0) has index 16 * 32
    cfg = make_torus(preset("dual"), 2)
    trig = assemble_function_constraints(cfg, 1).trig
    u = np.zeros(cfg.n * trig.size)
    pair = next(p for p in range(trig.npairs)
                if tuple(trig.freqs[p]) == (1, 0, 0, 0))
    u[trig.size + 1 + 2 * pair] = 1.0
    for rep in (verify_min_leaf(_one_row(u, trig), cfg, trig), reference_min_leaf(u, cfg, trig)):
        assert rep.data["MIN_LEAF_INDEX"] == 512
        assert rep.data["MIN_LEAF_AVG"] == -1.0
    assert dense_min_leaf(u, cfg, trig, 32)[0][0] == 512


def test_min_leaf_all_flags_injected_among_solutions():
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 2)
    trig = system.trig
    solutions = solve_nullspace(system)
    bad = np.zeros(system.ncols)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    bad[1 + 2 * pair] = 1.0  # g = cos(x^{1,0})
    stack = np.concatenate([solutions[:3], split_rows(bad, trig.size), solutions[3:]])
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
    for stack in (solutions[:1], solutions, np.concatenate([solutions] * 3)):
        assert verify_min_leaf_all(stack, cfg, system.trig).passed
    assert calls == []


def test_min_leaf_tie_tolerance():
    # g1 = 0.037 cos 2x + 0.717 cos 3x is even, so the lattice points 5 and 27
    # of 32 have the same average in exact arithmetic; through cos and sin of
    # the lattice points the average at 27 is one ulp smaller, and the tie
    # rule of the dense check still picks 5. On one trig index, g1 = cos x
    # on 7 points is smallest at 3 and 4 in exact arithmetic and one ulp
    # smaller at 4, and the closed form's tie rule picks 3
    cfg = make_torus(preset("dual"), 1)
    trig = assemble_function_constraints(cfg, 3).trig
    u = np.zeros(cfg.n * trig.size)
    for k, c in (((2, 0), 0.037), ((3, 0), 0.717)):
        pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == k)
        u[trig.size + 1 + 2 * pair] = c
    assert dense_min_leaf(u, cfg, trig, 32)[0][0] == 5
    rep = reference_min_leaf(u, cfg, trig)
    assert rep.data["MIN_LEAF_INDEX"] == 5
    assert_allclose(rep.data["MIN_LEAF_AVG"], 0.037 * np.cos(5 * np.pi / 8)
                    + 0.717 * np.cos(15 * np.pi / 16), rtol=1e-14)

    u = np.zeros(cfg.n * trig.size)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0))
    u[trig.size + 1 + 2 * pair] = 1.0
    values = np.cos(2 * np.pi * np.arange(7) / 7)
    assert values[4] < values[3] == values[3:5].max()
    assert dense_min_leaf(u, cfg, trig, 7)[0][0] == 3
    for rep in (verify_min_leaf(_one_row(u, trig), cfg, trig, grid=7),
                reference_min_leaf(u, cfg, trig, grid=7)):
        assert rep.data["MIN_LEAF_INDEX"] == 3
        assert_allclose(rep.data["MIN_LEAF_AVG"], np.cos(6 * np.pi / 7), rtol=1e-14)


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
    rows = split_rows(_mixed_stack(system), trig.size)
    dense = scatter_rows(rows, trig.size)
    for grid, leaf_grid in itertools.product((1, 2, 3, 5), (1, 2)):
        refs = [reference_min_leaf(u, cfg, trig, grid, leaf_grid).data for u in dense]
        _assert_min_leaf_matches(torus._leaf_bounds(rows, cfg, trig, grid), rows, cfg, trig,
                                 grid, refs, 1e-13, same_verdict=False)


def test_min_leaf_groups_do_not_change_results():
    # the leaf is searched once per (k', cos or sin, sign of e1) group of
    # rows; each row on its own gives the same arrays
    cfg = make_torus(preset("trunc:3"), 2)
    system = assemble_function_constraints(cfg, 1)
    rows = split_rows(_mixed_stack(system), system.trig.size)
    whole = torus._leaf_bounds(rows, cfg, system.trig, 128)
    assert len(np.unique(whole[0], axis=0)) < len(rows)
    for i in range(len(rows)):
        one = torus._leaf_bounds(rows[i:i + 1], cfg, system.trig, 128)
        for a, b in zip(whole, one):
            assert np.array_equal(a[i:i + 1], b)


def _spy_leaf_bounds(monkeypatch):
    """(grid, rows) of every call of ``torus._leaf_bounds``."""
    sent = []
    leaf_bounds = torus._leaf_bounds

    def spied(rows, cfg, trig, grid):
        sent.append((grid, len(rows)))
        return leaf_bounds(rows, cfg, trig, grid)

    monkeypatch.setattr(torus, "_leaf_bounds", spied)
    return sent


def _live_count(rows):
    return int(np.count_nonzero((rows["index"] != 0) & (rows["vec"][:, 0] != 0)))


def test_flat_real_parts_never_reach_the_leaf_check(monkeypatch, capsys):
    # the verify golden ladder through the CLI, whose solutions all have
    # constant real parts, then seeded non-solutions on the same tori, whose
    # live rows alone reach the closed form
    sent = _spy_leaf_bounds(monkeypatch)
    expected = []
    for name, m, d, grid in itertools.product(("dual", "trunc:3", "square:2"),
                                              (1, 2), (0, 1, 2), (32, 7)):
        code = main(["verify", "--preset", name, "--m", str(m), "--degree", str(d),
                     "--grid", str(grid)])
        capsys.readouterr()
        if code == 5:  # over the column cap: no solutions to check
            continue
        assert sent == expected
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        rows = split_rows(_mixed_stack(system), system.trig.size)
        verify_min_leaf_all(rows, cfg, system.trig, grid)
        expected += [(grid, _live_count(rows))] if _live_count(rows) else []
    assert sent == expected
    assert {grid for grid, _ in sent} == {32, 7}


def test_verify_sends_no_row_to_the_leaf_check(monkeypatch, capsys):
    # every solution is flat, so neither the verify golden ladder nor dual
    # m=4 d=1 (82 solutions) sends a row to the closed form; exit codes as
    # before
    sent = _spy_leaf_bounds(monkeypatch)
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
    assert sent == []
    # the spy sees the rows of a live stack
    cfg = make_torus(preset("dual"), 1)
    system = assemble_function_constraints(cfg, 1)
    verify_min_leaf_all(split_rows(_mixed_stack(system), system.trig.size), cfg, system.trig)
    assert sent and sent[0][1] > 0


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
def test_flat_rows_skip_the_leaf_check_exactly(config, seed, consts, nlive):
    # solutions, constant-only real parts, rows with a zero real part, the
    # rows of dense non-solutions and one NaN real-part coefficient,
    # shuffled; every row's leaf matches the dense oracle and the reference,
    # its gradient and variation equal the oracle's and bound the
    # reference's, and the flat rows' are exactly 0
    cfg, trig, solutions = _solved(*config)
    rng = np.random.default_rng(seed)
    picked = solutions[rng.choice(len(solutions), size=min(3, len(solutions)), replace=False)]
    vecs = rng.standard_normal((2 * len(consts) + 1, cfg.n))
    vecs[:len(consts), 0] = consts
    vecs[len(consts):-1, 0] = 0.0
    vecs[-1, 0] = np.nan
    index = np.concatenate([np.zeros(len(consts), int),
                            rng.integers(1, trig.size, size=len(consts) + 1)])
    dense = split_rows(rng.standard_normal((nlive, cfg.n * trig.size)), trig.size)
    rows = np.concatenate([picked, solution_rows(index, vecs), dense])
    order = rng.permutation(len(rows))
    rows = rows[order]
    is_flat = (rows["index"] == 0) | (rows["vec"][:, 0] == 0)
    is_nan = order == len(picked) + len(vecs) - 1
    quiet = is_flat | is_nan  # all but the dense rows, which fail on their own

    got = torus._leaf_bounds(rows, cfg, trig, 32)
    qmin, avg, grad, variation = dense_min_leaf(scatter_rows(rows, trig.size), cfg, trig, 32)
    assert np.array_equal(_leaf_index(got[0], 32), qmin)
    assert np.array_equal(got[2], grad, equal_nan=True)
    assert np.array_equal(got[3], variation, equal_nan=True)
    assert_allclose(got[1], avg, rtol=1e-12, atol=0)
    refs = [reference_min_leaf(u, cfg, trig).data for u in scatter_rows(rows, trig.size)]
    _assert_min_leaf_matches(got, rows, cfg, trig, 32, refs, 1e-15)
    assert np.isnan(got[2][is_nan]).all() and np.isnan(got[3][is_nan]).all()
    assert np.all(got[2][is_flat] == 0.0) and np.all(got[3][is_flat] == 0.0)
    assert verify_min_leaf_all(rows[is_flat], cfg, trig).passed
    rep = verify_min_leaf_all(rows[quiet], cfg, trig)
    assert {c.name for c in rep.checks if not c.passed} == {"min_leaf_gradient",
                                                             "real_part_variation"}


def test_min_leaf_has_no_lattice_to_refuse():
    # 10^18 transversal lattice points at m = 2: the closed form searches
    # only the few multiples of gcd(k', grid) that can tie for the minimum.
    # The leaf is the first t whose cos(2 pi t / grid) is within TIE_RTOL of
    # -1, a few hundred points before the minimum, where the gradient is
    # |sin(2 pi t / grid)|, not 0
    cfg = make_torus(preset("dual"), 2)
    trig = assemble_function_constraints(cfg, 1).trig
    u = np.zeros(cfg.n * trig.size)
    pair = next(p for p in range(trig.npairs) if tuple(trig.freqs[p]) == (1, 0, 0, 0))
    u[[1 + 2 * pair, trig.size + 1 + 2 * pair]] = 1.0  # g = g1 = cos(theta_1)
    row = _one_row(u, trig)
    tracemalloc.start()
    try:
        rep = verify_min_leaf(row, cfg, trig, grid=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    t = np.arange(5 * 10**8 - 10**3, 5 * 10**8 + 1)
    t = t[np.cos(2 * np.pi * t / 10**9) <= -1 + torus.TIE_RTOL][0]
    assert 5 * 10**8 - t > 100 and rep.data["MIN_LEAF_INDEX"] == t * 10**9
    assert abs(rep.data["MIN_LEAF_AVG"] + 1.0) <= torus.TIE_RTOL
    assert_allclose(rep.data["GRAD_MAX"], np.sin(2 * np.pi * (5 * 10**8 - t) / 10**9), rtol=1e-9)
    assert rep.data["G_VARIATION"] == 2.0
    assert verify_min_leaf_all(np.reshape(row, 1), cfg, trig, grid=10**9).data == {
        key: rep.data[key] for key in ("GRAD_MAX", "G_VARIATION")}


def test_size_checks_never_build_or_print_huge_counts():
    # far past the limit: refused on logarithms, 2 * 3^(2*10^6) never built
    cfg = make_torus(preset("dual"), 10**6)
    with pytest.raises(SizeCapExceeded) as exc:
        torus.capped_trig_space(cfg, 1, cfg.n, 20000)
    assert str(exc.value) == "more than 2^79 columns exceed the cap 20000"
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


def _mixed_rows(system, cfg, seed):
    """Solutions, then seeded compact non-solutions: vectors on random trig
    indices, a real part alone on a non-constant index, an e1 part alone on
    a non-transversal index, that real part again as NaN, and two of the
    random rows again with an inf and a -inf entry."""
    rng = np.random.default_rng(seed)
    B, n = system.trig.size, cfg.n
    index, vecs = rng.integers(B, size=9), rng.standard_normal((9, n))
    index[4] = rng.integers(1, B) if B > 1 else 0
    vecs[4, 1:] = 0.0
    nonbasic = np.flatnonzero(~system.trig.transversal_mask(cfg.m))
    index[5] = rng.choice(nonbasic) if len(nonbasic) else 0
    vecs[5, :1] = vecs[5, 2:] = 0.0
    index[6:], vecs[6:] = index[[4, 0, 1]], vecs[[4, 0, 1]]
    vecs[6, 0] = np.nan
    vecs[[7, 8], rng.integers(n, size=2)] = (np.inf, -np.inf)
    return np.concatenate([solve_nullspace(system), solution_rows(index, vecs)])


@pytest.mark.parametrize("name,m,d", CONFIGS)
def test_vectorized_checks_match_per_solution_loop(name, m, d):
    # compact rows against the per-solution loops on their dense scatter:
    # reports bitwise, violation texts and NaN included, on stacks with more
    # than eight violating rows once there are non-constant functions (d > 0)
    cfg = make_torus(preset(name), m)
    system = assemble_function_constraints(cfg, d)
    B = system.trig.size
    stack = np.concatenate([_mixed_rows(system, cfg, seed) for seed in range(1, 6)])
    data = verify_constancy(stack, cfg, system.trig).data
    assert ("REAL_PART_VIOLATION[7]" in data) == (d > 0)
    assert np.isnan(data["REAL_PART_NONCONST_MASS"]) == (d > 0)
    for got, ref in ((verify_constancy, reference_constancy),
                     (verify_socle_decomposition, reference_socle_decomposition)):
        for rows in (stack, stack[:1], solve_nullspace(system)):
            assert (got(rows, cfg, system.trig).render()
                    == ref(scatter_rows(rows, B), cfg, system.trig).render())


def test_solutions_pass_pointwise_defect():
    # cross-module consistency: trig solutions are differentiable over A
    rng = np.random.default_rng(5)
    for name, m, d in [("dual", 1, 2), ("trunc:3", 1, 1)]:
        cfg = make_torus(preset(name), m)
        system = assemble_function_constraints(cfg, d)
        for u in scatter_rows(solve_nullspace(system), system.trig.size):
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
        t, vecs = sol["index"], sol["vec"]
        assert vecs.shape == (len(sol), system.frame.shape[0]) and np.all(vecs.any(axis=1))
        assert np.all((0 <= t) & (t < system.trig.size))
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


def _assert_bitwise(rows, want, size):
    """``solution_rows`` scattered to a dense stack, against one, bit for bit."""
    got = scatter_rows(rows, size)
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
        _assert_bitwise(solve_nullspace(system, tol), reference_solve_nullspace(system, tol),
                        system.trig.size)
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
    _assert_bitwise(solve_nullspace(system, tol), reference_solve_nullspace(system, tol),
                    system.trig.size)


def _svd_modes(monkeypatch, system):
    """Modes that ``solve_nullspace`` passes to ``np.linalg.svd``."""
    modes, real_svd = [], np.linalg.svd

    def spying_svd(a, *args, **kwargs):
        modes.append(len(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spying_svd)
    got = solve_nullspace(system)
    monkeypatch.setattr(np.linalg, "svd", real_svd)
    _assert_bitwise(got, reference_solve_nullspace(system), system.trig.size)
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
