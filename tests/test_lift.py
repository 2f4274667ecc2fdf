"""Both lift routes, their equivalence, and the differentiability checks."""

import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from localalg import algebra, expr, lift
from localalg.algebra import graded_multiindices, mul, preset
from localalg.errors import AlgebraFormatError, DomainError, NonUnitError
from localalg.expr import eval_real, parse
from localalg.lift import (
    adiff_defect,
    e1_component_residual,
    format_element,
    lift_eval,
    lift_map,
    parse_element,
    parse_point,
    taylor_lift,
)

from util import (
    CORPUS,
    CORPUS_VARS,
    PRESETS,
    invert,
    radical_negation_map,
    reference_adiff_defect,
    real_part,
    reference_taylor_lift,
    staircase_quotients,
    standardize,
    unit_safe_point,
)

STD = {name: standardize(preset(name)) for name in PRESETS}
STAIRCASES = staircase_quotients()


# -- frozen examples ---------------------------------------------------------------


def test_taylor_dual_square():
    A, info = STD["dual"]
    out = taylor_lift(parse("x1^2", 1), np.array([[3.0, 2.0]]), A, info)
    assert_allclose(out, [9.0, 12.0])


def test_taylor_identity_lift():
    rng = np.random.default_rng(0)
    for name in PRESETS:
        A, info = STD[name]
        X = rng.uniform(-2, 2, size=(1, A.n))
        assert_allclose(taylor_lift(parse("x1", 1), X, A, info), X[0])


def test_taylor_sin_matches_symbolic_series():
    # oracle: sympy series of sin(x + t) truncated at t^3
    A, info = STD["trunc:3"]
    t, xs = sympy.symbols("t x")
    series = sympy.series(sympy.sin(xs + t), t, 0, 3).removeO()
    poly = sympy.Poly(series, t)
    for x in (0.0, 0.7, -1.3):
        out = taylor_lift(parse("sin(x1)", 1), np.array([[x, 1.0, 0.0]]), A, info)
        expected = [float(poly.coeff_monomial(t**k).subs(xs, x)) for k in range(3)]
        assert_allclose(out, expected, atol=1e-15)


def test_lift_eval_dual_geometric():
    A, info = STD["dual"]
    out = lift_eval(parse("1/(1+x1)", 1), np.array([[0.0, 1.0]]), A, info)
    assert_allclose(out, [1.0, -1.0])


def test_lift_eval_trunc3_exponential():
    A, info = STD["trunc:3"]
    out = lift_eval(parse("exp(x1)", 1), np.array([[0.0, 1.0, 0.0]]), A, info)
    assert_allclose(out, [1.0, 1.0, 0.5])


def test_lift_eval_square2_product():
    # (a + x)(b + y) = ab + b x + a y since generator products vanish
    A, info = STD["square:2"]
    a, b = 1.7, -0.4
    X = np.array([[a, 1.0, 0.0], [b, 0.0, 1.0]])
    out = lift_eval(parse("x1 * x2", 2), X, A, info)
    assert_allclose(out, [a * b, b, a])


def test_lift_eval_log_requires_positive_real_part():
    A, info = STD["dual"]
    with pytest.raises(DomainError):
        lift_eval(parse("log(x1)", 1), np.array([[-1.0, 0.0]]), A, info)


def test_lift_eval_series_overflow_is_a_domain_error():
    A, info = STD["dual"]
    with pytest.raises(DomainError, match="leaves the float range"):
        lift_eval(parse("exp(x1)", 1), np.array([[1000.0, 1.0]]), A, info)
    with pytest.raises(DomainError, match="leaves the float range"):
        lift_eval(parse("cos(x1)", 1), np.array([[np.inf, 1.0]]), A, info)
    # 10^400 overflows in the power's value itself, as in eval_real
    with pytest.raises(DomainError, match="IntPow leaves the float range"):
        lift_eval(parse("x1^400", 1), np.array([[10.0, 0.0]]), A, info)


def test_non_finite_results_are_domain_errors():
    # products overflow without an exception: each route tests its result
    A, info = STD["dual"]
    X = np.array([[1e200, 0.0]])
    with pytest.raises(DomainError, match="the Taylor lift leaves the float range"):
        taylor_lift(parse("x1 * x1", 1), X, A, info)
    with pytest.raises(DomainError, match="the series evaluation leaves the float range"):
        lift_eval(parse("x1 * x1", 1), X, A, info)
    # finite values whose central differences overflow: 1e308 at the points
    # x0 + h e_col (even rows) and -1e308 at x0 - h e_col (odd rows)
    F = lambda flat: np.where(np.arange(len(flat)) % 2, -1e308, 1e308)[:, None] * A.unit()  # noqa: E731
    with pytest.raises(DomainError, match="the Jacobian leaves the float range"):
        adiff_defect(F, X, A)


def test_lift_eval_division_requires_unit():
    A, info = STD["dual"]
    with pytest.raises(NonUnitError):
        lift_eval(parse("1/x1", 1), np.array([[0.0, 1.0]]), A, info)


# -- equivalence of the two routes ----------------------------------------------------


def test_routes_agree_on_corpus():
    rng = np.random.default_rng(42)
    for name in PRESETS:
        A, info = STD[name]
        points = [
            unit_safe_point(rng, CORPUS_VARS, A.n) for _ in range(20)
        ]
        for text in CORPUS:
            e = parse(text, CORPUS_VARS)
            for X in points:
                t = taylor_lift(e, X, A, info)
                v = lift_eval(e, X, A, info)
                tol = 1e-9 * (1 + float(np.abs(t).max()))
                assert np.abs(t - v).max() <= tol, (name, text)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(PRESETS),
    idx=st.integers(min_value=0, max_value=len(CORPUS) - 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_routes_agree_property(name, idx, seed):
    A, info = STD[name]
    rng = np.random.default_rng(seed)
    X = unit_safe_point(rng, CORPUS_VARS, A.n)
    e = parse(CORPUS[idx], CORPUS_VARS)
    t = taylor_lift(e, X, A, info)
    v = lift_eval(e, X, A, info)
    assert np.abs(t - v).max() <= 1e-9 * (1 + float(np.abs(t).max()))


# -- the batched series evaluation ---------------------------------------------------


BATCH_PRESETS = ("dual", "trunc:3", "trunc:6", "square:2")
BATCH_STD = {name: standardize(preset(name)) for name in BATCH_PRESETS}


@pytest.mark.parametrize("name", BATCH_PRESETS)
def test_stack_rows_are_single_point_evaluations(name):
    A, info = BATCH_STD[name]
    rng = np.random.default_rng(15)
    stack = np.stack([unit_safe_point(rng, CORPUS_VARS, A.n) for _ in range(6)])
    for text in CORPUS:
        e = parse(text, CORPUS_VARS)
        rows = lift_eval(e, stack, A, info)
        nested = lift_eval(e, stack.reshape(2, 3, CORPUS_VARS, A.n), A, info)
        assert rows.shape == (6, A.n) and nested.shape == (2, 3, A.n)
        for X, row in zip(stack, rows):
            single = lift_eval(e, X, A, info)
            assert np.array_equal(row.view(np.int64), single.view(np.int64)), text
        assert np.array_equal(nested.reshape(6, A.n), rows)


@pytest.mark.parametrize("text", ["sin(x1)", "cos(x1)", "exp(x1)", "log(x1)",
                                  "x1^2", "x1^3", "x1^7", "x1^40"])
def test_primitive_values_are_bitwise_eval_real(text):
    # the series values come from math, as eval_real's do: numpy's vector
    # kernels may round differently and would move the lift reports
    A, info = BATCH_STD["trunc:3"]
    e = parse(text, 1)
    stack = np.zeros((20000, 1, A.n))
    stack[:, 0, 0] = np.random.default_rng(18).uniform(1e-3, 10.0, len(stack))
    got = lift_eval(e, stack, A, info)[:, 0]
    want = np.array([eval_real(e, X[:, 0]) for X in stack])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["trunc:6", "dual"])
@pytest.mark.parametrize("exponent", [2, 5, 99999999])
def test_power_costs_the_series_ladder_only(monkeypatch, name, exponent):
    # x^e is one series term per power of the radical below min(e + 1, nu):
    # r^0 and r^1 are free, each further power is one stacked product
    A, info = BATCH_STD[name]
    calls = []
    real = lift._products

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lift, "_products", spy)
    X = np.zeros((1, A.n))
    X[0, 0], X[0, 1:] = 1.00000001, np.random.default_rng(19).uniform(-1, 1, A.n - 1)
    lift_eval(parse(f"x1^{exponent}", 1), X, A, info)
    assert len(calls) == max(min(exponent, info.nu - 1) - 1, 0)


@pytest.mark.parametrize("name", BATCH_PRESETS)
def test_series_division_is_the_inverse_times_the_numerator(name):
    # oracle: invert's geometric series, then one product
    A, info = BATCH_STD[name]
    rng = np.random.default_rng(16)
    e = parse("x1 / x2", 2)
    for _ in range(10):
        u, v = unit_safe_point(rng, 2, A.n)
        v[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        want = mul(A, u, invert(A, v, info.nu))
        got = lift_eval(e, np.array([u, v]), A, info)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_series_division_refuses_non_units_at_the_inverse_threshold():
    A, info = STD["trunc:3"]
    e = parse("1 / x1", 1)
    for factor in (0.5, 0.999, 1.001, 2.0):
        v = np.array([0.0, 0.8, -0.3])
        v[0] = factor * 1e-9 * (1.0 + np.linalg.norm(v))
        refused = []
        # the oracle, the point alone, and the point in a stack behind a unit
        for inverse in (lambda: invert(A, v, info.nu),
                        lambda: lift_eval(e, np.array([v]), A, info),
                        lambda: lift_eval(e, np.array([[A.unit()], [v]]), A, info)):
            try:
                inverse()
                refused.append(False)
            except NonUnitError:
                refused.append(True)
        assert refused == [factor < 1.0] * 3, factor


def test_adiff_defect_is_the_column_loop_reference():
    rng = np.random.default_rng(17)
    for name in BATCH_PRESETS:
        A, info = BATCH_STD[name]
        for text in CORPUS:
            X = unit_safe_point(rng, CORPUS_VARS, A.n)
            F = lift_map(parse(text, CORPUS_VARS), A, info)
            assert adiff_defect(F, X, A) == reference_adiff_defect(F, X, A), (name, text)
        X = rng.uniform(-2, 2, size=(1, A.n))
        F = radical_negation_map(A)
        assert adiff_defect(F, X, A) == reference_adiff_defect(F, X, A)


# -- the memoized Taylor lift against its oracles ---------------------------------------


TRUNC = {k: standardize(preset(f"trunc:{k}")) for k in range(3, 10)}
TAYLOR_ALGEBRAS = {**{str(k): TRUNC[k] for k in range(3, 10)},  # trunc:k under the id k
                   "square:3": standardize(preset("square:3")),
                   **{f"staircase{i}": standardize(STAIRCASES[i]) for i in (3, 5)}}
# max |taylor_lift - reference_taylor_lift| / (1 + max |reference|) is at most
# 4.05e-16 over the cases of test_taylor_lift_matches_the_reference (trunc:8,
# three slots, exp(x1 + x2) / (1 + x1^2)); the bound is ten times that
REFERENCE_TOL = 4e-15


def corpus_in(m):
    """The corpus over m slots (x2 read as x1 for one slot), a term in x3 for
    three, and x1^3, whose lift at x1 = -0.0 is -0.0 when no term survives."""
    texts = [t.replace("x2", "x1") for t in CORPUS] if m == 1 else list(CORPUS)
    return texts + ["x1^3"] + ["exp(x1 * x3) / (2 + x2 * x3)"] * (m == 3)


def assert_matches_reference(e, X, A, info, what):
    """The real part bit for bit, signed zeros included (both take it from
    eval_real), the rest within REFERENCE_TOL of the symbolic reference."""
    a = taylor_lift(e, X, A, info)
    b = reference_taylor_lift(e, X, A, info)
    assert a[:1].view(np.int64) == b[:1].view(np.int64), what
    assert np.abs(a - b).max() <= REFERENCE_TOL * (1 + np.abs(b).max()), what


@pytest.mark.parametrize("name", list(TAYLOR_ALGEBRAS))
def test_taylor_lift_matches_the_reference(name):
    # the reference builds and walks each symbolic derivative with no memo
    # shared between them and adds its terms one by one; at 1, 2 and 3 slots
    A, info = TAYLOR_ALGEBRAS[name]
    for m in (1, 2, 3):
        rng = np.random.default_rng(100 + A.n + 10 * m)
        points = [unit_safe_point(rng, m, A.n) for _ in range(2)]
        points.append(np.where(rng.random((m, A.n)) < 0.5, -0.0, points[0]))
        points[-1][:, 0] = -0.0
        for text in corpus_in(m):
            for X in points:
                assert_matches_reference(parse(text, m), X, A, info, (name, m, text))


@pytest.mark.parametrize("name", ["dual", "trunc:3", "trunc:4", "trunc:5", "trunc:7", "trunc:8"])
@pytest.mark.parametrize("text", ["x1^3", "(x1*x2)^4", "x1^7"])
@pytest.mark.parametrize("base", [0.0, -0.0, 0.7])
def test_power_matches_the_reference_below_at_and_above_nu(name, text, base):
    # below nu, or at a base real part of +-0.0, x^e is e - 1 truncated
    # products; otherwise u E u^e = e u^e E u, which divides by the base
    A, info = standardize(preset(name))
    X = unit_safe_point(np.random.default_rng(21), 2, A.n)
    X[0, 0] = base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_reference(parse(text, 2), X, A, info, (name, text, base))


def symbolic_kept(e, x, nu):
    """The p, 1 <= |p| < nu, whose coefficient D^p e (x) the symbolic sweep
    finds nonzero: the terms it keeps."""
    derivs, kept = {(0,) * len(x): e}, set()
    for p in graded_multiindices(len(x), nu - 1):
        j = next(i for i, pi in enumerate(p) if pi > 0)
        parent = tuple(pi - (1 if i == j else 0) for i, pi in enumerate(p))
        derivs[p] = expr.diff(derivs[parent], j + 1)
        if eval_real(derivs[p], x) != 0.0:
            kept.add(p)
    return kept


def test_taylor_lift_makes_no_mul_calls_and_one_product_per_power_and_slot(monkeypatch):
    # radical powers 2..nu-1 on one stack (r^0 and r^1 cost nothing), then one
    # stacked product per slot that some kept term raises to a positive power;
    # every term the symbolic sweep keeps is kept
    calls = {"mul": 0, "products": 0}

    def counting(key, real):
        def spy(*args):
            calls[key] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(algebra, "mul", counting("mul", algebra.mul))
    # lift binds ``mul`` by name at import, so a call would go through that name
    monkeypatch.setattr(lift, "mul", counting("mul", algebra.mul), raising=False)
    monkeypatch.setattr(lift, "_products", counting("products", lift._products))
    rng = np.random.default_rng(31)
    for name in ("8", "square:3", "staircase5"):
        A, info = TAYLOR_ALGEBRAS[name]
        for m in (1, 2, 3):
            X = unit_safe_point(rng, m, A.n)
            exps = lift._taylor_table(m, info.nu).exps[1:].tolist()
            for text in corpus_in(m):
                e = parse(text, m)
                coeffs = lift._taylor_coefficients(e, X[:, 0], info.nu)[1:]
                kept = {tuple(p) for p, c in zip(exps, coeffs) if c != 0.0}
                assert symbolic_kept(e, X[:, 0], info.nu) <= kept, (name, m, text)
                calls.update(mul=0, products=0)
                taylor_lift(e, X, A, info)
                assert calls["mul"] == 0, (name, m, text)
                raised = {j for p in kept for j, pj in enumerate(p) if pj}
                assert calls["products"] == max(info.nu - 2, 0) + len(raised), (name, m, text)


def test_taylor_lift_matches_sympy_series():
    # X_j = x_j + c_j e1 on trunc:7: the e_k coefficient is [t^k] g(x + c t)
    A, info = TRUNC[7]
    x = (0.3, -0.45)
    c = (0.7, -1.1)
    t, x1, x2 = sympy.symbols("t x1 x2")
    shift = {x1: sympy.Rational(x[0]) + sympy.Rational(c[0]) * t,
             x2: sympy.Rational(x[1]) + sympy.Rational(c[1]) * t}
    X = np.array([[x[0], c[0]] + [0.0] * (A.n - 2), [x[1], c[1]] + [0.0] * (A.n - 2)])
    for text in CORPUS:
        g = sympy.sympify(text.replace("^", "**"), locals={"x1": x1, "x2": x2})
        series = sympy.series(g.subs(shift, simultaneous=True), t, 0, A.n).removeO()
        expected = np.array([float(sympy.N(series.coeff(t, k), 30)) for k in range(A.n)])
        lifted = taylor_lift(parse(text, 2), X, A, info)
        scale = np.abs(expected).max()
        assert_allclose(lifted, expected, rtol=1e-12, atol=1e-12 * scale, err_msg=text)


@pytest.mark.parametrize("k, m", [(8, 2), (5, 3)])
def test_taylor_coefficients_are_sympy_mixed_partials(k, m):
    # every D^p g(x) / p!, |p| < nu, in the table's order: mixed partials too,
    # which the series along one direction above cannot tell apart
    A, info = TRUNC[k]
    x = (0.3, -0.45, 0.6)[:m]
    syms = sympy.symbols(f"x1:{m + 1}")
    at = {s: sympy.Rational(v) for s, v in zip(syms, x)}
    exps = [tuple(p) for p in lift._taylor_table(m, info.nu).exps.tolist()]
    extra = ["1/(2+x1*x2)", "log(3+x1*x2)", "(x1-x2)^9"]
    for text in list(CORPUS) + extra + ["exp(x1 * x3) / (2 + x2 * x3)"] * (m == 3):
        derivs = {exps[0]: sympy.sympify(text.replace("^", "**"),
                                         locals={str(s): s for s in syms})}
        for p in exps[1:]:
            j = next(i for i, pi in enumerate(p) if pi > 0)
            derivs[p] = derivs[p[:j] + (p[j] - 1,) + p[j + 1:]].diff(syms[j])
        expected = np.array([float(sympy.N(derivs[p].subs(at) / sympy.prod(
            sympy.factorial(pi) for pi in p), 30)) for p in exps])
        got = lift._taylor_coefficients(parse(text, m), np.array(x), info.nu)
        scale = np.abs(expected).max()
        assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale, err_msg=text)


def test_taylor_lift_builds_and_evaluates_each_node_once(monkeypatch):
    # no derivative is built, nothing of lift_eval's route runs, one eval_real
    # memo holds every constant term, and each node's polynomial costs one kernel
    # call: a product per Mul and per extra factor of a power below nu, a solve
    # per quotient and primitive
    A, info = TRUNC[9]
    eval_memos, diff_calls, kernels = {}, [], {"_taylor_product": 0, "_taylor_solve": 0}
    evaluate = expr.eval_real

    def eval_spy(e, point, memo=None):
        eval_memos[id(memo)] = memo
        return evaluate(e, point, memo)

    def counting(name):
        real = getattr(lift, name)

        def spy(*args, **kwargs):
            kernels[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(expr, "diff", lambda *args: diff_calls.append(args))
    monkeypatch.setattr(expr, "eval_real", eval_spy)
    for name in kernels:
        monkeypatch.setattr(lift, name, counting(name))
    for name in ("_derivatives", "_series_apply", "lift_eval"):  # lift_eval's route
        monkeypatch.setattr(lift, name, lambda *args, name=name: pytest.fail(name))
    X = unit_safe_point(np.random.default_rng(1), 2, A.n)
    text = "exp(x1 + x2) / (1 + x1^2) + sin(x1 * x2) * log(3 + x1) - cos(x1)^12"
    taylor_lift(parse(text, 2), X, A, info)
    assert diff_calls == []
    (eval_memo,) = eval_memos.values()
    assert len(eval_memo) == 18  # the distinct nodes, x1 and the constant 1 once each
    # x1 * x2, sin * log, x1^2; exp, the quotient, sin, log, cos and cos^12
    assert kernels == {"_taylor_product": 3, "_taylor_solve": 6}


# -- structural properties -------------------------------------------------------------


def test_lift_is_additive_and_multiplicative():
    rng = np.random.default_rng(7)
    e1 = parse("sin(x1)", 2)
    e2 = parse("x2^2 + x1", 2)
    esum = parse("sin(x1) + (x2^2 + x1)", 2)
    eprod = parse("sin(x1) * (x2^2 + x1)", 2)
    for name in PRESETS:
        A, info = STD[name]
        for _ in range(5):
            X = unit_safe_point(rng, 2, A.n)
            l1 = taylor_lift(e1, X, A, info)
            l2 = taylor_lift(e2, X, A, info)
            lsum = taylor_lift(esum, X, A, info)
            lprod = taylor_lift(eprod, X, A, info)
            assert np.abs(lsum - (l1 + l2)).max() <= 1e-9
            assert np.abs(lprod - mul(A, l1, l2)).max() <= 1e-9 * (
                1 + np.abs(lprod).max()
            )


def test_real_part_projection_is_exact():
    rng = np.random.default_rng(8)
    for name in PRESETS:
        A, info = STD[name]
        for text in CORPUS:
            e = parse(text, CORPUS_VARS)
            X = unit_safe_point(rng, CORPUS_VARS, A.n)
            lifted = taylor_lift(e, X, A, info)
            assert real_part(lifted) == eval_real(e, X[:, 0])


def test_chain_property_composition():
    # lifting sin(x1^2) equals applying the lifted sine to the lifted square
    rng = np.random.default_rng(9)
    for name in PRESETS:
        A, info = STD[name]
        X = unit_safe_point(rng, 1, A.n)
        inner = lift_eval(parse("x1^2", 1), X, A, info)
        outer = lift_eval(parse("sin(x1)", 1), np.array([inner]), A, info)
        direct = lift_eval(parse("sin(x1^2)", 1), X, A, info)
        assert np.abs(outer - direct).max() <= 1e-9
        taylor = taylor_lift(parse("sin(x1^2)", 1), X, A, info)
        assert np.abs(taylor - direct).max() <= 1e-9 * (1 + np.abs(taylor).max())


# -- numerical differentiability --------------------------------------------------------


def test_lifts_have_small_defect():
    rng = np.random.default_rng(10)
    for name in PRESETS:
        A, info = STD[name]
        for text in CORPUS:
            e = parse(text, CORPUS_VARS)
            X = unit_safe_point(rng, CORPUS_VARS, A.n)
            F = lift_map(e, A, info)
            assert adiff_defect(F, X, A) <= 1e-6, (name, text)


def test_constant_map_zero_defect():
    A, _ = STD["trunc:3"]
    F = lambda flat: np.tile([1.0, 2.0, 3.0], (len(flat), 1))  # noqa: E731
    assert adiff_defect(F, np.array([[0.1, 0.2, 0.3]]), A) == 0.0


def test_radical_negation_defect():
    # J = diag(1, -1, ...) does not commute with nilpotent multiplication
    rng = np.random.default_rng(11)
    for name in ("dual", "trunc:3"):
        A, _ = STD[name]
        F = radical_negation_map(A)
        for _ in range(10):
            X = rng.uniform(-2, 2, size=(1, A.n))
            defect = adiff_defect(F, X, A)
            assert defect >= 0.5


# -- e1-component identity ---------------------------------------------------------------


def test_e1_identity_trunc3():
    A, info = STD["trunc:3"]
    rng = np.random.default_rng(12)
    e = parse("sin(x1)", 1)
    for _ in range(10):
        x, a, b = rng.uniform(-2, 2, 3)
        X = np.array([[x, a, b]])
        assert e1_component_residual(e, X, A, info) <= 1e-12
        lifted = taylor_lift(e, X, A, info)
        assert abs(lifted[1] - a * np.cos(x)) <= 1e-12


def test_e1_identity_dual_example():
    A, info = STD["dual"]
    X = np.array([[3.0, 2.0]])
    lifted = taylor_lift(parse("x1^2", 1), X, A, info)
    assert lifted[1] == 12.0
    assert e1_component_residual(parse("x1^2", 1), X, A, info) == 0.0


def test_e1_identity_vanishing_radical():
    rng = np.random.default_rng(13)
    for name in PRESETS:
        A, info = STD[name]
        x = rng.uniform(-0.5, 0.5, 2)
        X = np.column_stack([x, np.zeros((2, A.n - 1))])
        for text in CORPUS:
            assert e1_component_residual(parse(text, 2), X, A, info) == 0.0


def test_e1_identity_multislot():
    A, info = STD["trunc:4"]
    rng = np.random.default_rng(14)
    for text in CORPUS:
        e = parse(text, 2)
        X = unit_safe_point(rng, 2, A.n)
        assert e1_component_residual(e, X, A, info) <= 1e-12


# -- literals ------------------------------------------------------------------------------


def test_element_literal_roundtrip():
    A, _ = STD["trunc:3"]
    a = A.element([1.0, 2.0, 0.5])
    assert format_element(a, A) == "1 + 2 e1 + 0.5 e2"
    assert_allclose(parse_element(format_element(a, A), A), a)
    assert_allclose(parse_element("-1", A), [-1.0, 0.0, 0.0])
    assert_allclose(parse_element("1 - 2 e1", A), [1.0, -2.0, 0.0])
    assert_allclose(parse_element("0 + 1 e2", A), [0.0, 0.0, 1.0])


def test_element_literal_errors():
    A, _ = STD["dual"]
    with pytest.raises(AlgebraFormatError):
        parse_element("1 + 2 zz", A)
    with pytest.raises(AlgebraFormatError):
        parse_element("1 + e1", A)
    with pytest.raises(AlgebraFormatError):
        parse_element("1 2 e1", A)


def test_element_literal_exponent_term_hint():
    A, _ = STD["trunc:3"]
    with pytest.raises(AlgebraFormatError, match=r"'2e1' was read as the number 20; "
                       r"for 2 times e1 write '2 e1'"):
        parse_element("1 + 2e1", A)
    with pytest.raises(AlgebraFormatError) as err:
        parse_element("1 + 2", A)
    assert "was read as" not in str(err.value)
    assert_allclose(parse_element("2e1 + 2 e1", A), [20.0, 2.0, 0.0])


def test_point_literal():
    A, _ = STD["dual"]
    X = parse_point("3 + 2 e1; 0.5", A)
    assert len(X) == 2
    assert_allclose(X, [[3.0, 2.0], [0.5, 0.0]])
    with pytest.raises(AlgebraFormatError):
        parse_point("", A)
    for text in ("1;;2", "1;", "; 1", "1; "):
        with pytest.raises(AlgebraFormatError, match="empty slot"):
            parse_point(text, A)
