"""Expression parsing, evaluation and symbolic differentiation."""

import gc
import math
import weakref

import mpmath
import numpy as np
import pytest

from localalg import expr
from localalg.errors import DomainError, ExprSyntaxError, UnknownVariable
from localalg.expr import (
    Add,
    Const,
    IntPow,
    Sin,
    Var,
    diff,
    eval_real,
    parse,
)
from util import CORPUS, CORPUS_VARS, to_text


def test_parse_structure():
    e = parse("x1^2 + sin(x2)", 2)
    assert e == Add(IntPow(Var(1), 2), Sin(Var(2)))


# -- interning and memos ---------------------------------------------------------


def test_parse_returns_the_interned_node():
    assert parse("x1^2 + sin(x2)", 2) is Add(IntPow(Var(1), 2), Sin(Var(2)))
    assert Var(1) is Var(1)
    assert IntPow(Var(1), 2) is not IntPow(Var(1), 3)


def test_constants_are_keyed_by_bit_pattern():
    assert Const(0.0) is not Const(-0.0)
    assert math.copysign(1.0, Const(-0.0).value) == -1.0
    assert Const(2.5) is Const(2.5)
    assert Const(2) is Const(2.0) and type(Const(2).value) is float


def test_unreferenced_tree_leaves_the_table():
    gc.collect()
    before = len(expr._INTERNED)
    tree = parse("exp(x1 + 123.456) / (1 + x1^7)", 1)
    node = weakref.ref(diff(tree, 1))
    assert len(expr._INTERNED) > before
    del tree
    gc.collect()
    assert node() is None
    assert len(expr._INTERNED) == before


def test_shared_memo_gives_the_same_nodes_and_values():
    e = parse("exp(x1 + x2) / (1 + x1^2)", 2)
    dmemo, emem = {}, {}
    for j in (1, 2, 1):
        shared = diff(e, j, dmemo)
        assert shared is diff(e, j)
        assert eval_real(shared, (0.3, -0.2), emem) == eval_real(shared, (0.3, -0.2))
        e = shared


@pytest.mark.parametrize("text,x", [
    ("exp(x1)^1000", 1.0),  # IntPow overflows
    ("exp(x1)", 1000.0),  # math.exp overflows
    ("sin(x1 * 1e200 * 1e200)", 1.0),  # sin(inf) is a math domain error
])
def test_float_overflow_is_a_domain_error(text, x):
    with pytest.raises(DomainError, match="leaves the float range"):
        eval_real(parse(text, 1), [x])


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x3", 2)
    with pytest.raises(UnknownVariable):
        parse("x0", 2)


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + ", 1)
    assert isinstance(exc.value.offset, int)
    with pytest.raises(ExprSyntaxError):
        parse("(x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", 1)
    with pytest.raises(ExprSyntaxError):
        parse("foo(x1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1 x2", 2)


def test_precedence():
    # '^' binds tighter than '*', '-' is left-associative
    assert eval_real(parse("2*x1^2", 1), [3.0]) == 18.0
    assert eval_real(parse("8 - 4 - 2", 1), [0.0]) == 2.0
    assert eval_real(parse("8 / 4 / 2", 1), [0.0]) == 1.0


def test_commuted_product_evaluates_identically():
    e1 = parse("2*x1 - x1*2", 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-10, 10, 1)
        assert eval_real(e1, x) == 0.0


def test_diff_power():
    e = diff(parse("x1^2", 1), 1)
    for x in (0.0, 1.5, -2.0):
        assert eval_real(e, [x]) == 2 * x


def test_diff_sin_twice():
    e = diff(diff(parse("sin(x1)", 1), 1), 1)
    for x in (0.0, 0.7, 2.0):
        assert abs(eval_real(e, [x]) + math.sin(x)) < 1e-15


def test_diff_against_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for text in CORPUS:
        e = parse(text, CORPUS_VARS)
        for j in (1, 2):
            de = diff(e, j)
            for _ in range(5):
                x = rng.uniform(-0.7, 0.7, CORPUS_VARS)
                xp, xm = x.copy(), x.copy()
                xp[j - 1] += h
                xm[j - 1] -= h
                fd = (eval_real(e, xp) - eval_real(e, xm)) / (2 * h)
                exact = eval_real(de, x)
                assert abs(fd - exact) <= 1e-6 * (1 + abs(exact)), (text, j)


def test_eval_examples():
    assert eval_real(parse("x1^2 + sin(x2)", 2), [2.0, 0.0]) == 4.0
    with pytest.raises(DomainError):
        eval_real(parse("log(x1)", 1), [-1.0])
    with pytest.raises(DomainError):
        eval_real(parse("1/x1", 1), [0.0])


def test_eval_against_high_precision():
    mpmath.mp.dps = 50
    e = parse("exp(x1) * sin(x2)", 2)
    x = (0.3, 0.7)
    reference = float(mpmath.exp(mpmath.mpf("0.3")) * mpmath.sin(mpmath.mpf("0.7")))
    assert abs(eval_real(e, x) - reference) < 1e-15


def test_roundtrip_through_printer():
    rng = np.random.default_rng(5)
    points = rng.uniform(-0.7, 0.7, size=(50, CORPUS_VARS))
    for text in CORPUS:
        e = parse(text, CORPUS_VARS)
        for node in (e, diff(e, 1), diff(diff(e, 2), 1)):
            back = parse(to_text(node), CORPUS_VARS)
            for x in points:
                assert eval_real(back, x) == eval_real(node, x), text


def test_mixed_partials_commute():
    rng = np.random.default_rng(9)
    points = rng.uniform(-0.7, 0.7, size=(50, CORPUS_VARS))
    for text in CORPUS:
        e = parse(text, CORPUS_VARS)
        d12 = diff(diff(e, 1), 2)
        d21 = diff(diff(e, 2), 1)
        for x in points:
            a, b = eval_real(d12, x), eval_real(d21, x)
            assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_leading_minus():
    assert eval_real(parse("-x1 + 1", 1), [3.0]) == -2.0
    assert eval_real(parse("(-2) * x1", 1), [2.0]) == -4.0


def test_integer_power_zero_is_one():
    assert eval_real(parse("x1^0", 1), [0.0]) == 1.0
