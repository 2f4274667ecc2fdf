"""Both lift routes, their equivalence, and the differentiability checks."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from localalg.algebra import mul, preset, real_part, standardize
from localalg.errors import AlgebraFormatError, DomainError, NonUnitError
from localalg.expr import CORPUS, CORPUS_VARS, eval_real, parse
from localalg.lift import (
    APoint,
    adiff_defect,
    e1_component_residual,
    format_element,
    lift_eval,
    lift_map,
    parse_element,
    parse_point,
    taylor_lift,
)

from util import PRESETS, radical_negation_map, unit_safe_point

STD = {name: standardize(preset(name)) for name in PRESETS}


# -- frozen examples ---------------------------------------------------------------


def test_taylor_dual_square():
    A, info = STD["dual"]
    out = taylor_lift(parse("x1^2", 1), APoint([[3.0, 2.0]]), A, info)
    assert_allclose(out, [9.0, 12.0])


def test_taylor_identity_lift():
    rng = np.random.default_rng(0)
    for name in PRESETS:
        A, info = STD[name]
        X = APoint(rng.uniform(-2, 2, size=(1, A.n)))
        assert_allclose(taylor_lift(parse("x1", 1), X, A, info), X.components[0])


def test_taylor_sin_matches_symbolic_series():
    # oracle: sympy series of sin(x + t) truncated at t^3
    A, info = STD["trunc:3"]
    t, xs = sympy.symbols("t x")
    series = sympy.series(sympy.sin(xs + t), t, 0, 3).removeO()
    poly = sympy.Poly(series, t)
    for x in (0.0, 0.7, -1.3):
        out = taylor_lift(parse("sin(x1)", 1), APoint([[x, 1.0, 0.0]]), A, info)
        expected = [float(poly.coeff_monomial(t**k).subs(xs, x)) for k in range(3)]
        assert_allclose(out, expected, atol=1e-15)


def test_lift_eval_dual_geometric():
    A, info = STD["dual"]
    out = lift_eval(parse("1/(1+x1)", 1), APoint([[0.0, 1.0]]), A, info)
    assert_allclose(out, [1.0, -1.0])


def test_lift_eval_trunc3_exponential():
    A, info = STD["trunc:3"]
    out = lift_eval(parse("exp(x1)", 1), APoint([[0.0, 1.0, 0.0]]), A, info)
    assert_allclose(out, [1.0, 1.0, 0.5])


def test_lift_eval_square2_product():
    # (a + x)(b + y) = ab + b x + a y since generator products vanish
    A, info = STD["square:2"]
    a, b = 1.7, -0.4
    X = APoint([[a, 1.0, 0.0], [b, 0.0, 1.0]])
    out = lift_eval(parse("x1 * x2", 2), X, A, info)
    assert_allclose(out, [a * b, b, a])


def test_lift_eval_log_requires_positive_real_part():
    A, info = STD["dual"]
    with pytest.raises(DomainError):
        lift_eval(parse("log(x1)", 1), APoint([[-1.0, 0.0]]), A, info)


def test_lift_eval_division_requires_unit():
    A, info = STD["dual"]
    with pytest.raises(NonUnitError):
        lift_eval(parse("1/x1", 1), APoint([[0.0, 1.0]]), A, info)


# -- equivalence of the two routes ----------------------------------------------------


def test_routes_agree_on_corpus():
    rng = np.random.default_rng(42)
    for name in PRESETS:
        A, info = STD[name]
        points = [
            APoint(unit_safe_point(rng, CORPUS_VARS, A.n)) for _ in range(20)
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
    X = APoint(unit_safe_point(rng, CORPUS_VARS, A.n))
    e = parse(CORPUS[idx], CORPUS_VARS)
    t = taylor_lift(e, X, A, info)
    v = lift_eval(e, X, A, info)
    assert np.abs(t - v).max() <= 1e-9 * (1 + float(np.abs(t).max()))


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
            X = APoint(unit_safe_point(rng, 2, A.n))
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
            X = APoint(unit_safe_point(rng, CORPUS_VARS, A.n))
            lifted = taylor_lift(e, X, A, info)
            assert real_part(lifted) == eval_real(e, X.real_parts())


def test_chain_property_composition():
    # lifting sin(x1^2) equals applying the lifted sine to the lifted square
    rng = np.random.default_rng(9)
    for name in PRESETS:
        A, info = STD[name]
        X = APoint(unit_safe_point(rng, 1, A.n))
        inner = lift_eval(parse("x1^2", 1), X, A, info)
        outer = lift_eval(parse("sin(x1)", 1), APoint([inner]), A, info)
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
            X = APoint(unit_safe_point(rng, CORPUS_VARS, A.n))
            F = lift_map(e, A, info)
            assert adiff_defect(F, X, A) <= 1e-6, (name, text)


def test_constant_map_zero_defect():
    A, _ = STD["trunc:3"]
    F = lambda flat: np.array([1.0, 2.0, 3.0])  # noqa: E731
    assert adiff_defect(F, APoint([[0.1, 0.2, 0.3]]), A) == 0.0


def test_radical_negation_defect():
    # J = diag(1, -1, ...) does not commute with nilpotent multiplication
    rng = np.random.default_rng(11)
    for name in ("dual", "trunc:3"):
        A, _ = STD[name]
        F = radical_negation_map(A)
        for _ in range(10):
            X = APoint(rng.uniform(-2, 2, size=(1, A.n)))
            defect = adiff_defect(F, X, A)
            assert defect >= 0.5


# -- e1-component identity ---------------------------------------------------------------


def test_e1_identity_trunc3():
    A, info = STD["trunc:3"]
    rng = np.random.default_rng(12)
    e = parse("sin(x1)", 1)
    for _ in range(10):
        x, a, b = rng.uniform(-2, 2, 3)
        X = APoint([[x, a, b]])
        assert e1_component_residual(e, X, A, info) <= 1e-12
        lifted = taylor_lift(e, X, A, info)
        assert abs(lifted[1] - a * np.cos(x)) <= 1e-12


def test_e1_identity_dual_example():
    A, info = STD["dual"]
    X = APoint([[3.0, 2.0]])
    lifted = taylor_lift(parse("x1^2", 1), X, A, info)
    assert lifted[1] == 12.0
    assert e1_component_residual(parse("x1^2", 1), X, A, info) == 0.0


def test_e1_identity_vanishing_radical():
    rng = np.random.default_rng(13)
    for name in PRESETS:
        A, info = STD[name]
        x = rng.uniform(-0.5, 0.5, 2)
        X = APoint(np.column_stack([x, np.zeros((2, A.n - 1))]))
        for text in CORPUS:
            assert e1_component_residual(parse(text, 2), X, A, info) == 0.0


def test_e1_identity_multislot():
    A, info = STD["trunc:4"]
    rng = np.random.default_rng(14)
    for text in CORPUS:
        e = parse(text, 2)
        X = APoint(unit_safe_point(rng, 2, A.n))
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


def test_point_literal():
    A, _ = STD["dual"]
    X = parse_point("3 + 2 e1; 0.5", A)
    assert X.m == 2
    assert_allclose(X.components, [[3.0, 2.0], [0.5, 0.0]])
    with pytest.raises(AlgebraFormatError):
        parse_point("", A)
