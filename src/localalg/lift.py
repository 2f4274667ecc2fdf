"""Lifting smooth real expressions to algebra-valued arguments.

A point of A^m splits per slot into a real part x and a nilpotent radical
part. A smooth g then extends to A^m by the finite Taylor sum

    g(x) + sum_{1 <= |p| < nu} (1/p!) (D^p g)(x) (X - x)^p,

which terminates because the radical parts satisfy rad^nu = 0. Two
independent routes are provided: ``taylor_lift`` evaluates that sum with
exact symbolic derivatives, while ``lift_eval`` walks the expression tree in
algebra arithmetic (primitives applied through their own truncated series).
Both must agree; their agreement and the commutation of numerical Jacobian
blocks with the multiplication operators (``adiff_defect``) are the working
definitions of differentiability over A used throughout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .algebra import (
    Element,
    StandardBasisInfo,
    StructureConstants,
    graded_multiindices,
    invert,
    mul,
    radical_part,
)
from .errors import AlgebraFormatError, DomainError

DEFAULT_STEP = 1e-5


@dataclass(frozen=True)
class APoint:
    """A point of A^m: one coefficient row per slot, standard coordinates."""

    components: np.ndarray  # shape (m, n)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.components, dtype=float))
        object.__setattr__(self, "components", arr)

    @property
    def m(self) -> int:
        return self.components.shape[0]

    @property
    def n(self) -> int:
        return self.components.shape[1]

    def real_parts(self) -> np.ndarray:
        return self.components[:, 0].copy()

    def flatten(self) -> np.ndarray:
        """Slot-major flattening (slot 0 coefficients first)."""
        return self.components.reshape(-1).copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, n: int) -> "APoint":
        return cls(np.asarray(flat, dtype=float).reshape(-1, n))


def _radical_powers(A: StructureConstants, r: Element, kmax: int) -> list[Element]:
    powers = [A.unit()]
    for _ in range(kmax):
        powers.append(mul(A, powers[-1], r))
    return powers


def taylor_lift(e: ex.Expr, X: APoint, A: StructureConstants,
                info: StandardBasisInfo) -> Element:
    """Taylor-sum lift with exact symbolic derivatives.

    Terms of total order >= nu vanish identically (the radical parts live in
    powers of the radical), so the sum stops at nu - 1.
    """
    m = X.m
    nu = info.nu
    x = X.real_parts()
    # powers of the radical parts, slot by slot
    rad_powers = [
        _radical_powers(A, radical_part(X.components[j]), nu - 1) for j in range(m)
    ]

    # one memo each: every distinct derivative node is built and evaluated once
    diff_memo: dict = {}
    eval_memo: dict = {}
    out = A.zero()
    out[0] = ex.eval_real(e, x, eval_memo)

    derivs: dict[tuple[int, ...], ex.Expr] = {(0,) * m: e}
    for p in graded_multiindices(m, nu - 1):
        j = next(i for i, pi in enumerate(p) if pi > 0)
        parent = tuple(pi - (1 if i == j else 0) for i, pi in enumerate(p))
        dp = ex.diff(derivs[parent], j + 1, diff_memo)
        derivs[p] = dp
        coeff = ex.eval_real(dp, x, eval_memo)
        if coeff == 0.0:
            continue
        for pi in p:
            coeff /= math.factorial(pi)
        term = A.unit()
        for i, pi in enumerate(p):
            if pi:
                term = mul(A, term, rad_powers[i][pi])
        out = out + coeff * term
    return out


def _series_apply(A: StructureConstants, nu: int, derivative_values, u: Element) -> Element:
    """Apply a primitive via its truncated series at the real part of u."""
    r = radical_part(u)
    powers = _radical_powers(A, r, nu - 1)
    out = A.zero()
    for k in range(nu):
        out = out + (derivative_values[k] / math.factorial(k)) * powers[k]
    return out


def lift_eval(e: ex.Expr, X: APoint, A: StructureConstants,
              info: StandardBasisInfo) -> Element:
    """Evaluate the expression tree directly in algebra arithmetic."""
    nu = info.nu

    def ev(node: ex.Expr) -> Element:
        if isinstance(node, ex.Const):
            return node.value * A.unit()
        if isinstance(node, ex.Var):
            return X.components[node.index - 1].copy()
        if isinstance(node, ex.Add):
            return ev(node.left) + ev(node.right)
        if isinstance(node, ex.Sub):
            return ev(node.left) - ev(node.right)
        if isinstance(node, ex.Mul):
            return mul(A, ev(node.left), ev(node.right))
        if isinstance(node, ex.Div):
            return mul(A, ev(node.left), invert(A, ev(node.right), nu))
        if isinstance(node, ex.IntPow):
            base = ev(node.base)
            out = A.unit()
            for _ in range(node.exponent):
                out = mul(A, out, base)
            return out
        if isinstance(node, (ex.Sin, ex.Cos, ex.Exp, ex.Log)):
            u = ev(node.arg)
            c = u[0]
            try:
                if isinstance(node, ex.Sin):
                    table = (math.sin(c), math.cos(c), -math.sin(c), -math.cos(c))
                    vals = [table[k % 4] for k in range(nu)]
                elif isinstance(node, ex.Cos):
                    table = (math.cos(c), -math.sin(c), -math.cos(c), math.sin(c))
                    vals = [table[k % 4] for k in range(nu)]
                elif isinstance(node, ex.Exp):
                    vals = [math.exp(c)] * nu
                else:
                    if c <= 0.0:
                        raise DomainError(f"log of non-positive real part {c}")
                    vals = [math.log(c)] + [
                        (-1.0) ** (k - 1) * math.factorial(k - 1) / c**k
                        for k in range(1, nu)
                    ]
            except (OverflowError, ValueError):
                raise DomainError(f"{type(node).__name__} leaves the float range") from None
            return _series_apply(A, nu, vals, u)
        raise TypeError(f"not an expression node: {node!r}")

    return ev(e)


# -- numerical differentiability check -------------------------------------------


def adiff_defect(F: Callable[[np.ndarray], np.ndarray], X: APoint,
                 A: StructureConstants, h: float = DEFAULT_STEP) -> float:
    """Worst commutator norm between Jacobian blocks and multiplications.

    ``F`` maps a slot-major flat vector of length n*m to n reals. The central
    difference Jacobian is split into m blocks of shape n x n; the defect is
    the largest absolute entry of ``J_j L_i - L_i J_j`` over all slots j and
    basis multiplication operators L_i. Zero defect (up to discretization)
    characterizes differentiability over A.
    """
    n = A.n
    x0 = X.flatten()
    dim = x0.size
    J = np.empty((n, dim))
    for col in range(dim):
        step = np.zeros(dim)
        step[col] = h
        J[:, col] = (np.asarray(F(x0 + step)) - np.asarray(F(x0 - step))) / (2 * h)
    mats = A.basis_mult_matrices()
    worst = 0.0
    for j in range(X.m):
        block = J[:, j * n:(j + 1) * n]
        for L in mats:
            worst = max(worst, float(np.abs(block @ L - L @ block).max()))
    return worst


def lift_map(e: ex.Expr, A: StructureConstants,
             info: StandardBasisInfo) -> Callable[[np.ndarray], np.ndarray]:
    """The lifted expression as a map on slot-major flat coordinates."""

    def F(flat: np.ndarray) -> np.ndarray:
        return lift_eval(e, APoint.from_flat(flat, A.n), A, info)

    return F


def e1_component_residual(e: ex.Expr, X: APoint, A: StructureConstants,
                          info: StandardBasisInfo) -> float:
    """Gap between the e1-coefficient of the lift and the first-order term.

    For the global Taylor lift the e1-coefficient equals
    ``sum_j (dg/dx^j)(x) * X_j[1]`` exactly: all higher terms lie in rad^2,
    whose standard-basis expansion has no e1-component.
    """
    lifted = taylor_lift(e, X, A, info)
    x = X.real_parts()
    first_order = 0.0
    for j in range(X.m):
        first_order += ex.eval_real(ex.diff(e, j + 1), x) * X.components[j, 1]
    return abs(float(lifted[1]) - first_order)


# -- element and point literals ---------------------------------------------------

_LIT_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*))"
)


def parse_element(text: str, A: StructureConstants) -> Element:
    """Parse ``<real> [ + <real> <basisname> ]*`` (signs may be '-')."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _LIT_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise AlgebraFormatError(f"bad element literal {text!r}")
            break
        tokens.append(m)
        pos = m.end()

    out = A.zero()
    i = 0
    first = True
    while i < len(tokens):
        sign = 1.0
        if tokens[i].group("sign"):
            sign = -1.0 if tokens[i].group("sign") == "-" else 1.0
            i += 1
        elif not first:
            raise AlgebraFormatError(f"missing '+' between terms in {text!r}")
        if i >= len(tokens) or not tokens[i].group("num"):
            raise AlgebraFormatError(f"expected a number in {text!r}")
        value = sign * float(tokens[i].group("num"))
        i += 1
        if i < len(tokens) and tokens[i].group("name"):
            out[A.index_of(tokens[i].group("name"))] += value
            i += 1
        else:
            if not first:
                raise AlgebraFormatError(
                    f"only the leading term may omit a basis name: {text!r}"
                    + _exponent_hint(tokens[i - 1].group("num"))
                )
            out[0] += value
        first = False
    return out


def _exponent_hint(num: str) -> str:
    """Hint for a number like ``2e1`` that may have meant 2 times e1."""
    m = re.fullmatch(r"(.*?)([eE]\d+)", num)
    if not m:
        return ""
    return (f" ({num!r} was read as the number {float(num):g}; "
            f"for {m.group(1)} times {m.group(2)} write '{m.group(1)} {m.group(2)}')")


def format_element(a: Element, A: StructureConstants) -> str:
    """Render an element literal with 17 significant digits."""
    parts = [f"{float(a[0]):.17g}"]
    for i in range(1, A.n):
        v = float(a[i])
        if v == 0.0:
            continue
        if v < 0:
            parts.append(f"- {-v:.17g} {A.labels[i]}")
        else:
            parts.append(f"+ {v:.17g} {A.labels[i]}")
    return " ".join(parts)


def parse_point(text: str, A: StructureConstants) -> APoint:
    """Parse a semicolon-separated list of element literals."""
    pieces = [p for p in text.split(";")]
    if not pieces or not any(p.strip() for p in pieces):
        raise AlgebraFormatError("empty point literal")
    return APoint(np.vstack([parse_element(p, A) for p in pieces]))
