"""Smooth scalar expressions in m real variables.

Recursive-descent parser, plain real evaluation and exact symbolic partial derivatives
(``diff``, for ``lift``'s e1 check and the tests' oracles) of a small expression language:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' uint)?
    atom   := number | 'x'uint | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | exp | log

Only integer powers are supported; the lifted series of x^e ends at order e.
No simplification is performed beyond constant folding.

Nodes are hash-consed by ``Expr.__new__``: structurally equal trees are one
object (a ``Const`` is keyed by its float's bit pattern, so ``-0.0`` is not
``0.0``), hashed and compared by identity, and freed with their last user.
``diff`` and ``eval_real`` memoize by node in an optional ``memo`` (fresh
per call when omitted; an eval memo serves one point), so one memo shared
across calls builds or evaluates each distinct node once.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from dataclasses import dataclass

from .errors import DomainError, ExprSyntaxError, UnknownVariable


# (class, *fields) -> the live node with those fields
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Expr:
    __slots__ = ()

    def __new__(cls, *fields):
        fields = (float(*fields),) if cls is Const else fields
        key = (cls, struct.pack("<d", *fields)) if cls is Const else (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            node = _INTERNED[key] = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, eq=False, init=False)
class Var(Expr):
    index: int  # 1-based


@dataclass(frozen=True, eq=False, init=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False)
class IntPow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=False, init=False)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, init=False)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, init=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, init=False)
class Log(Expr):
    arg: Expr


FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp, "log": Log}
ZERO, ONE = Const(0.0), Const(1.0)  # held here: folds and diff return these nodes


# -- folding constructors -------------------------------------------------------


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    # folding 0/x or x/0 would change domain behaviour; fold only b == 1
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def intpow(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**k)
    return IntPow(base, k)


# -- parsing ---------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z]+\d*")


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return node

    def expr(self) -> Expr:
        if self.accept("-"):
            node = sub(ZERO, self.term())
        else:
            node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.atom()
        if self.accept("^"):
            self.skip_ws()
            m = _NUMBER_RE.match(self.text, self.pos)
            if not m or not m.group().isdigit():
                self.error("exponent must be a non-negative integer")
            self.pos = m.end()
            return intpow(node, int(m.group()))
        return node

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        start = self.pos
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            vm = re.fullmatch(r"x(\d+)", name)
            if vm:
                idx = int(vm.group(1))
                if not 1 <= idx <= self.nvars:
                    raise UnknownVariable(
                        f"variable x{idx} out of range 1..{self.nvars}", start
                    )
                return Var(idx)
            if name in FUNCTIONS:
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return FUNCTIONS[name](node)
            self.error(f"unknown name {name!r}", start)
        self.error(f"unexpected character {ch!r}")


def parse(text: str, nvars: int) -> Expr:
    """Parse an expression over variables x1..x<nvars>."""
    return _Parser(text, nvars).parse()


# -- differentiation -------------------------------------------------------------


def diff(e: Expr, j: int, memo: dict | None = None) -> Expr:
    """Exact symbolic partial derivative with respect to x<j>."""
    memo = {} if memo is None else memo
    if (e, j) in memo:
        return memo[e, j]
    if isinstance(e, Const):
        d = ZERO
    elif isinstance(e, Var):
        d = ONE if e.index == j else ZERO
    elif isinstance(e, Add):
        d = add(diff(e.left, j, memo), diff(e.right, j, memo))
    elif isinstance(e, Sub):
        d = sub(diff(e.left, j, memo), diff(e.right, j, memo))
    elif isinstance(e, Mul):
        d = add(mul(diff(e.left, j, memo), e.right), mul(e.left, diff(e.right, j, memo)))
    elif isinstance(e, Div):
        # (u' - (u/v) v') / v reuses u/v: derivative DAGs grow linearly, no v^(2^k)
        d = div(sub(diff(e.left, j, memo), mul(e, diff(e.right, j, memo))), e.right)
    elif isinstance(e, IntPow):  # exponent >= 2: ``intpow`` folds 0 and 1
        d = mul(mul(Const(float(e.exponent)), intpow(e.base, e.exponent - 1)),
                diff(e.base, j, memo))
    elif isinstance(e, Sin):
        d = mul(Cos(e.arg), diff(e.arg, j, memo))
    elif isinstance(e, Cos):
        d = mul(Const(-1.0), mul(Sin(e.arg), diff(e.arg, j, memo)))
    elif isinstance(e, Exp):
        d = mul(e, diff(e.arg, j, memo))
    elif isinstance(e, Log):
        d = div(diff(e.arg, j, memo), e.arg)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[e, j] = d
    return d


# -- evaluation ------------------------------------------------------------------


def eval_real(e: Expr, point, memo: dict | None = None) -> float:
    """Evaluate at a real point (sequence of length >= max variable index)."""
    memo = {} if memo is None else memo
    if e in memo:
        return memo[e]
    try:
        if isinstance(e, Const):
            v = e.value
        elif isinstance(e, Var):
            v = float(point[e.index - 1])
        elif isinstance(e, Add):
            v = eval_real(e.left, point, memo) + eval_real(e.right, point, memo)
        elif isinstance(e, Sub):
            v = eval_real(e.left, point, memo) - eval_real(e.right, point, memo)
        elif isinstance(e, Mul):
            v = eval_real(e.left, point, memo) * eval_real(e.right, point, memo)
        elif isinstance(e, Div):
            denom = eval_real(e.right, point, memo)
            if denom == 0.0:
                raise DomainError("division by zero")
            v = eval_real(e.left, point, memo) / denom
        elif isinstance(e, IntPow):
            v = eval_real(e.base, point, memo) ** e.exponent
        elif isinstance(e, Sin):
            v = math.sin(eval_real(e.arg, point, memo))
        elif isinstance(e, Cos):
            v = math.cos(eval_real(e.arg, point, memo))
        elif isinstance(e, Exp):
            v = math.exp(eval_real(e.arg, point, memo))
        elif isinstance(e, Log):
            v = eval_real(e.arg, point, memo)
            if v <= 0.0:
                raise DomainError(f"log of non-positive value {v}")
            v = math.log(v)
        else:
            raise TypeError(f"not an expression node: {e!r}")
    except (OverflowError, ValueError):
        raise DomainError(f"{type(e).__name__} leaves the float range") from None
    memo[e] = v
    return v
