"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from localalg.algebra import (
    mul,
    preset,
    radical_basis,
    radical_filtration,
    socle_basis,
    standardize,
    validate_algebra,
)
from localalg.expr import CORPUS, CORPUS_VARS, parse
from localalg.lift import (
    APoint,
    adiff_defect,
    lift_eval,
    lift_map,
    taylor_lift,
)
from localalg.linalg import nullspace_rows
from localalg.torus import (
    assemble_function_constraints,
    make_torus,
    solve_nullspace,
    verify_constancy,
    verify_min_leaf_all,
    verify_socle_decomposition,
)
from localalg.forms import (
    assemble_form_constraints,
    component_space_dim,
    verify_class_injectivity,
)

from util import (
    PRESETS,
    radical_negation_map,
    socle_embedding_vector,
    unit_safe_point,
)

NU_EXPECTED = {"dual": 2, "trunc:3": 3, "trunc:4": 4, "square:2": 2}

FUNCTION_CONFIGS = (
    [("dual", 1, d) for d in range(4)]
    + [("trunc:3", 1, d) for d in range(3)]
    + [("square:2", 1, d) for d in range(2)]
)

FORM_CONFIGS = [("trunc:3", 1, d) for d in (1, 2, 3)] + [("trunc:4", 1, 1)]


def _report(num: int, ok: bool, label: str, elapsed: float | None = None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {label}{timing}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def solved_functions():
    t0 = time.perf_counter()
    out = {}
    for name, m, d in FUNCTION_CONFIGS:
        cfg = make_torus(name, m)
        system = assemble_function_constraints(cfg, d)
        out[(name, m, d)] = (cfg, system, solve_nullspace(system))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def solved_forms():
    out = {}
    for name, m, d in FORM_CONFIGS:
        cfg = make_torus(name, m)
        form_sys = assemble_form_constraints(cfg, d)
        fn_sys = assemble_function_constraints(cfg, d)
        out[(name, m, d)] = (
            cfg,
            form_sys,
            solve_nullspace(form_sys),
            solve_nullspace(fn_sys),
        )
    return out


def test_criterion_1_algebra_structure():
    t0 = time.perf_counter()
    ok = True
    for name in PRESETS:
        A = preset(name)
        ok &= validate_algebra(A) == []
        rad = radical_basis(A)
        ok &= rad.shape[0] == A.n - 1
        chain, nu = radical_filtration(A)
        ok &= nu == NU_EXPECTED[name]
        soc = socle_basis(A)
        # brute-force annihilator kernel: x * e_l = 0 for every non-unit l,
        # plus membership in the radical
        rows = [A.mult_matrix(A.basis_element(l)) for l in range(1, A.n)]
        rows.append(np.eye(A.n)[:1])
        brute = nullspace_rows(np.vstack(rows), 1e-10)
        ok &= brute.shape[0] == soc.shape[0]
        for vec in brute:
            proj = (vec @ soc.T) @ soc
            ok &= bool(np.abs(proj - vec).max() <= 1e-10)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, "algebra structure on presets", elapsed)


def test_criterion_2_lift_equivalence():
    standardized = {name: standardize(preset(name)) for name in PRESETS}
    exprs = [parse(text, CORPUS_VARS) for text in CORPUS]
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for name in PRESETS:
        A, info = standardized[name]
        points = [APoint(unit_safe_point(rng, CORPUS_VARS, A.n)) for _ in range(20)]
        for e in exprs:
            for X in points:
                t = taylor_lift(e, X, A, info)
                v = lift_eval(e, X, A, info)
                gap = float(np.abs(t - v).max()) / (1 + float(np.abs(t).max()))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"lift route equivalence, worst rel gap {worst:.2e}", elapsed)


def test_criterion_3_differentiability_dichotomy():
    rng = np.random.default_rng(3)
    ok = True
    for name in PRESETS:
        A, info = standardize(preset(name))
        for text in CORPUS:
            e = parse(text, CORPUS_VARS)
            X = APoint(unit_safe_point(rng, CORPUS_VARS, A.n))
            ok &= adiff_defect(lift_map(e, A, info), X, A, h=1e-5) <= 1e-5
    for name in ("dual", "trunc:3"):
        A, _ = standardize(preset(name))
        F = radical_negation_map(A)
        for _ in range(10):
            X = APoint(rng.uniform(-2.0, 2.0, size=(1, A.n)))
            ok &= adiff_defect(F, X, A, h=1e-5) >= 0.1
    _report(3, ok, "lifts pass the defect check, the counterexample fails")


def test_criterion_4_constancy(solved_functions):
    solved, build_time = solved_functions
    t0 = time.perf_counter()
    ok = True
    for (name, m, d), (cfg, system, sol) in solved.items():
        if name == "dual":
            ok &= sol.shape[0] == 1 + (2 * d + 1)
        rep = verify_constancy(sol, cfg, system.trig, tol=1e-8)
        ok &= rep.passed
    elapsed = build_time + time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(4, ok, "real parts constant, e1-components basic", elapsed)


def test_criterion_5_socle_decomposition(solved_functions):
    rng = np.random.default_rng(5)
    ok = True
    for (name, m, d), (cfg, system, sol) in solved_functions[0].items():
        rep = verify_socle_decomposition(sol, cfg, system.trig, tol=1e-8)
        ok &= rep.passed
        # constructive embedding: basic trig polynomial times a socle element
        tmask = system.trig.transversal_mask(m)
        for s in socle_basis(cfg.algebra):
            f = rng.standard_normal(system.trig.size) * tmask
            vec = socle_embedding_vector(cfg, system.trig, s, f)
            ok &= system.residual_inf(vec) <= 1e-9 * (1 + float(np.abs(vec).max()))
    _report(5, ok, "solutions decompose over the socle; embedding holds")


def test_criterion_6_minimizing_leaf(solved_functions):
    ok = True
    worst = 0.0
    for (name, m, d), (cfg, system, sol) in solved_functions[0].items():
        # GRAD_MAX of the batched check is the largest over all solutions
        rep = verify_min_leaf_all(sol, cfg, system.trig, grid=32)
        worst = max(worst, rep.data["GRAD_MAX"])
        ok &= rep.data["GRAD_MAX"] <= 1e-8
    _report(6, ok, f"gradient at the minimizing leaf, worst {worst:.2e}")


def test_criterion_7_dimension_bounds(solved_forms):
    ok = True
    trunc3_dims = []
    for d in (1, 2, 3):
        cfg, form_sys, form_sol, fn_sol = solved_forms[("trunc:3", 1, d)]
        dim = component_space_dim(form_sol, 1, cfg, form_sys.trig)
        trunc3_dims.append(dim)
        ok &= dim <= cfg.n * cfg.ncoords == 9
        for j0 in cfg.info.breve_indices():
            B = form_sys.trig.size
            comps = np.atleast_2d(fn_sol)[:, j0 * B:(j0 + 1) * B]
            ok &= np.linalg.matrix_rank(comps, tol=1e-8) == 1
    ok &= len(set(trunc3_dims)) == 1

    cfg4, form_sys4, form_sol4, fn_sol4 = solved_forms[("trunc:4", 1, 1)]
    for j0 in cfg4.info.breve_indices():
        dim = component_space_dim(form_sol4, j0, cfg4, form_sys4.trig)
        ok &= dim <= cfg4.n * cfg4.ncoords == 16
    _report(7, ok, f"component dims {trunc3_dims} stable and bounded")


def test_criterion_8_class_injectivity(solved_forms):
    ok = True
    worst = 0.0
    for (name, m, d), (cfg, form_sys, form_sol, fn_sol) in solved_forms.items():
        residual, zm_dim = verify_class_injectivity(
            form_sol, fn_sol, cfg, form_sys.trig
        )
        worst = max(worst, residual)
        ok &= residual <= 1e-9
    _report(8, ok, f"zero-mean solutions are differentials, worst {worst:.2e}")


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "localalg"]
    verify_args = ["verify", "--preset", "trunc:3", "--m", "1", "--degree", "1"]
    forms_args = ["forms", "--preset", "trunc:3", "--m", "1", "--degree", "2"]
    ok = True
    for args in (verify_args, forms_args):
        first = subprocess.run(cmd + args, capture_output=True)
        second = subprocess.run(cmd + args, capture_output=True)
        ok &= first.returncode == second.returncode == 0
        ok &= first.stdout == second.stdout
    _report(9, ok, "verify and forms reports are byte-identical across runs")
