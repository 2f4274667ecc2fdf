"""Lifting smooth real expressions to algebra-valued arguments.

A point of A^m is an (m, n) array, one row of standard coordinates per
slot; each row splits into a real part x and a nilpotent radical part. A
smooth g then extends to A^m by the finite Taylor sum

    g(x) + sum_{1 <= |p| < nu} (1/p!) (D^p g)(x) (X - x)^p,

which terminates because the radical parts satisfy rad^nu = 0. Two independent
routes are provided: ``taylor_lift`` evaluates that sum by truncated Taylor
arithmetic and one stack of terms, while ``lift_eval`` walks the DAG in algebra
arithmetic over a stack of points at once, every primitive (sin, cos, exp, log,
``IntPow``, and 1/x for a quotient) applied through one truncated-series kernel.
Both must agree; their agreement, the symbolic e1 check and the commutation of
numerical Jacobian blocks with the multiplication operators (``adiff_defect``,
one evaluation of all its central differences) are the working definitions of
differentiability over A. A result that leaves the float range is a DomainError.
"""

from __future__ import annotations

import collections
import functools
import math
import re
from typing import Callable

import numpy as np

from . import expr as ex
from .algebra import (
    Element,
    StandardBasisInfo,
    StructureConstants,
    graded_multiindices,
    mul,  # not called here; the benchmark's tracer checks that lift.mul is algebra.mul
)
from .errors import AlgebraFormatError, DomainError, NonUnitError

DEFAULT_STEP = 1e-5
# a quotient's denominator v is a unit when |v[0]| > UNIT_THRESHOLD * (1 + |v|)
UNIT_THRESHOLD = 1e-9


def taylor_lift(e: ex.Expr, X: np.ndarray, A: StructureConstants,
                info: StandardBasisInfo) -> Element:
    """Taylor-sum lift at the (m, n) point X, its coefficients by truncated Taylor
    arithmetic; terms of order >= nu vanish. Products run on stacks, one per
    power and one per slot, and the terms are added in graded order."""
    m, nu, x = len(X), info.nu, X[:, 0]
    coeffs = _taylor_coefficients(e, x, nu)
    head = A.zero()
    head[0] = coeffs[0]
    kept = 1 + np.flatnonzero(coeffs[1:] != 0.0)  # the nonzero terms of order >= 1
    exps = _taylor_table(m, nu).exps[kept]
    powers = _radical_powers(A, X, nu)  # [k, j]: slot j's radical part to the k
    terms = np.tile(A.unit(), (len(exps), 1))
    for j in range(m):  # each term times its power of slot j, slots in order
        rows = np.flatnonzero(exps[:, j])
        if rows.size:
            terms[rows] = _products(A, terms[rows], powers[exps[rows, j], j])
    with np.errstate(all="ignore"):
        summands = np.vstack([head, coeffs[kept, None] * terms])
        # row by row from -0.0, which adds exactly: signed zeros stay as they are
        out = np.add.reduce(summands, axis=0, initial=-0.0)
    return _finite(out, "the Taylor lift")


# Truncated Taylor polynomials in t_1..t_m of degree < nu, ``exps`` ordered [(0,) * m] +
# graded_multiindices(m, nu - 1); per pair t^a t^b = t^c of degree < nu, sorted by c and
# ``starts`` at each (0, c): kd = |a| / |c| and one = 1.0 where |a| > 0
_TaylorTable = collections.namedtuple("_TaylorTable", "nu exps a b c starts kd one")


@functools.cache  # one per (m, nu) and process, as cli._parser
def _taylor_table(m: int, nu: int) -> _TaylorTable:
    exps = np.array([(0,) * m] + list(graded_multiindices(m, nu - 1))).reshape(-1, m)
    deg, rows = exps.sum(axis=1), exps.tolist()
    pos = {tuple(p): i for i, p in enumerate(rows)}
    c, a, b = np.array(sorted(  # exps is graded: the b of degree < nu - |a| lead it
        (pos[tuple(map(sum, zip(rows[i], rows[j])))], i, j)
        for i in range(len(rows)) for j in range(np.searchsorted(deg, nu - deg[i])))).T
    return _TaylorTable(nu, exps, a, b, c, np.flatnonzero(np.diff(c, prepend=-1)),
                        deg[a] / np.maximum(deg[c], 1), (deg[a] > 0) * 1.0)


def _taylor_coefficients(e: ex.Expr, x: np.ndarray, nu: int) -> np.ndarray:
    """D^p e (x) / p! for p in ``_taylor_table(m, nu).exps``: one walk of the DAG over
    truncated Taylor polynomials (Neidinger, Math. Comp. 2005), each constant term and
    domain error from one eval_real memo. Primitives solve, as E t^p = |p| t^p, E exp u
    = exp u E u, E e^(iu) = i e^(iu) E u, u E log u = E u, u E u^e = e u^e E u, v (a/v) = a."""
    memo: dict[ex.Expr, float] = {}
    ex.eval_real(e, x, memo)  # which holds each node after its children
    T, polys = _taylor_table(len(x), nu), {}
    with np.errstate(all="ignore"):
        for node, value in memo.items():
            p = np.zeros(len(T.exps))
            if isinstance(node, ex.Var):
                p[node.index] = 1.0
            elif isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
                f, g = polys[node.left], polys[node.right]
                p = (f + g if isinstance(node, ex.Add) else f - g if isinstance(node, ex.Sub)
                     else _taylor_product(T, f, g) if isinstance(node, ex.Mul)
                     else _taylor_solve(T, -T.one, g, value, f, g[0]))
            elif not isinstance(node, ex.Const):
                u = polys[node.base if isinstance(node, ex.IntPow) else node.arg]
                if isinstance(node, ex.IntPow) and (u[0] == 0.0 or node.exponent < nu):
                    p = u.copy()  # e - 1 products, no division by u0; u^nu = 0 at u0 = 0
                    for _ in range(min(node.exponent, nu) - 1):
                        p = _taylor_product(T, p, u)
                elif isinstance(node, ex.IntPow):
                    p = _taylor_solve(T, (node.exponent + 1) * T.kd - T.one, u, value, den=u[0])
                elif isinstance(node, (ex.Exp, ex.Log)):
                    p = (_taylor_solve(T, T.kd, u, value) if isinstance(node, ex.Exp)
                         else _taylor_solve(T, T.kd - T.one, u, value, u, u[0]))
                else:
                    z = _taylor_solve(T, 1j * T.kd, u, complex(math.cos(u[0]), math.sin(u[0])))
                    p = z.imag if isinstance(node, ex.Sin) else z.real
            p[0] = value
            polys[node] = p
    return polys[e]


def _taylor_product(T: _TaylorTable, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.bincount(T.c, f[T.a] * g[T.b], minlength=len(T.exps))


def _taylor_solve(T: _TaylorTable, w, u: np.ndarray, first, lin=0.0, den=1.0) -> np.ndarray:
    """q with q_0 = first, q_c = (lin_c + sum over a + b = c of w_ab u_a q_b) / den, w_0b = 0."""
    t, q = w * u[T.a], np.full(len(T.exps), first)
    for _ in range(T.nu - 1):  # q_c sees lower degrees only: sweep d fixes degree d
        q[1:] = ((lin + np.add.reduceat(t * q[T.b], T.starts)) / den)[1:]
    return q


def _products(A: StructureConstants, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of two stacks of elements, shape (P, n)."""
    return np.einsum("pi,pj,ijk->pk", a, b, A.C)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` itself when every entry is finite, else a DomainError."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} leaves the float range")
    return values


def _radical_powers(A: StructureConstants, u: np.ndarray, count: int) -> np.ndarray:
    """r^0..r^(count-1) for the radical parts r of the stack u, shape (count, P, n)."""
    powers = [np.tile(A.unit(), (len(u), 1)), np.where(np.arange(A.n) > 0, u, 0.0)]
    for _ in range(count - 2):
        powers.append(_products(A, powers[-1], powers[1]))
    return np.array(powers[:count])


def _series_apply(A: StructureConstants, derivative_values: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """Apply a primitive via its truncated series at the real parts of u.

    ``derivative_values[k]`` holds the k-th derivative at each row's real
    part, shape (K, P), K <= nu; the series stops at the radical's power K - 1.
    """
    out = np.zeros_like(u)
    powers = _radical_powers(A, u, len(derivative_values))
    for k, (values, power) in enumerate(zip(derivative_values, powers)):
        out = out + (values / math.factorial(k))[:, None] * power
    return out


def _derivatives(node: ex.Expr, u: np.ndarray, nu: int) -> np.ndarray:
    """Derivatives 0..nu-1 of the primitive at node (1/x for a Div) at the
    real parts of the stack u, shape (nu, P); those of x^e stop at the e-th."""
    c = u[:, 0]  # entry 0 by math per point, not numpy's SIMD kernels: eval_real's bits
    try:
        if isinstance(node, ex.IntPow):
            e = node.exponent
            vals = [np.array([x**e for x in c])] + [
                float(math.perm(e, k)) * c ** (e - k) for k in range(1, min(nu, e + 1))]
        elif isinstance(node, ex.Div):
            bad = c[np.abs(c) <= UNIT_THRESHOLD * (1.0 + np.linalg.norm(u, axis=1))]
            if bad.size:
                raise NonUnitError(f"real part {bad[0]} is numerically zero")
            vals = [(-1.0) ** k * math.factorial(k) / c ** (k + 1) for k in range(nu)]
        elif isinstance(node, ex.Log):
            if (c <= 0.0).any():
                raise DomainError(f"log of non-positive real part {c[c <= 0.0][0]}")
            vals = [np.array([math.log(x) for x in c])] + [
                (-1.0) ** (k - 1) * math.factorial(k - 1) / c**k for k in range(1, nu)]
        elif isinstance(node, ex.Exp):
            vals = [np.array([math.exp(x) for x in c])] * nu
        else:
            s, co = (np.array([f(x) for x in c]) for f in (math.sin, math.cos))
            table = (s, co, -s, -co) if isinstance(node, ex.Sin) else (co, -s, -co, s)
            vals = [table[k % 4] for k in range(nu)]
    except (OverflowError, ValueError):
        raise DomainError(f"{type(node).__name__} leaves the float range") from None
    return _finite(np.array(vals), type(node).__name__)


def lift_eval(e: ex.Expr, X, A: StructureConstants,
              info: StandardBasisInfo) -> np.ndarray:
    """Evaluate the expression DAG in algebra arithmetic, each interned node
    once for a whole stack X of points, (..., m, n) -> (..., n); a single
    (m, n) point gives one element. Every row is exactly its own single-point
    evaluation."""
    pts = np.asarray(X, dtype=float)
    lead = pts.shape[:-2]
    pts = pts.reshape((-1,) + pts.shape[-2:])
    memo: dict[ex.Expr, np.ndarray] = {}

    def ev(node: ex.Expr) -> np.ndarray:
        if node in memo:
            return memo[node]
        if isinstance(node, ex.Const):
            v = node.value * np.tile(A.unit(), (len(pts), 1))
        elif isinstance(node, ex.Var):
            v = pts[:, node.index - 1]
        elif isinstance(node, ex.Add):
            v = ev(node.left) + ev(node.right)
        elif isinstance(node, ex.Sub):
            v = ev(node.left) - ev(node.right)
        elif isinstance(node, ex.Mul):
            v = _products(A, ev(node.left), ev(node.right))
        elif isinstance(node, ex.Div):
            num, den = ev(node.left), ev(node.right)
            v = _products(A, num, _series_apply(A, _derivatives(node, den, info.nu), den))
        elif isinstance(node, (ex.IntPow, ex.Sin, ex.Cos, ex.Exp, ex.Log)):
            u = ev(node.base if isinstance(node, ex.IntPow) else node.arg)
            v = _series_apply(A, _derivatives(node, u, info.nu), u)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[node] = v
        return v

    with np.errstate(all="ignore"):
        return _finite(ev(e), "the series evaluation").reshape(lead + (A.n,))


# -- numerical differentiability check -------------------------------------------


def adiff_defect(F: Callable[[np.ndarray], np.ndarray], X: np.ndarray,
                 A: StructureConstants) -> float:
    """Worst commutator norm between Jacobian blocks and multiplications.

    ``F`` maps a stack of slot-major flat vectors, shape (P, n*m), to values
    of shape (P, n). It is called on the 2*n*m central-difference points
    x0 ± DEFAULT_STEP e_i of the (m, n) point X, and on x0 alone when they
    leave its domain: the DomainError or NonUnitError names the step only if
    x0 is inside. The Jacobian is split into m blocks of shape n x n;
    the defect is the largest absolute entry of ``J_j L_i - L_i J_j`` over
    all slots j and basis multiplication operators L_i. Zero defect (up to
    discretization) characterizes differentiability over A.
    """
    x0 = X.ravel()
    steps = DEFAULT_STEP * np.eye(x0.size)
    # rows x0 + step e_0, x0 - step e_0, x0 + step e_1, ...
    points = np.stack([x0 + steps, x0 - steps], axis=1).reshape(-1, x0.size)
    try:
        values = np.asarray(F(points))
    except (DomainError, NonUnitError) as e:
        F(x0[None])  # a point outside the domain raises its own error
        raise type(e)(f"central-difference points x0 ± {DEFAULT_STEP:g} "
                      f"leave the domain: {e}")
    with np.errstate(all="ignore"):
        J = _finite((values[0::2] - values[1::2]).T / (2 * DEFAULT_STEP), "the Jacobian")
    blocks = J.reshape(A.n, len(X), A.n).transpose(1, 0, 2)[:, None]
    mats = A.basis_mult_matrices()
    return float(np.abs(blocks @ mats - mats @ blocks).max())


def lift_map(e: ex.Expr, A: StructureConstants,
             info: StandardBasisInfo) -> Callable[[np.ndarray], np.ndarray]:
    """The lifted expression as a map on stacks of slot-major flat coordinates."""

    def F(flat: np.ndarray) -> np.ndarray:
        return lift_eval(e, np.reshape(flat, np.shape(flat)[:-1] + (-1, A.n)), A, info)

    return F


def e1_component_residual(e: ex.Expr, X: np.ndarray, A: StructureConstants,
                          info: StandardBasisInfo) -> float:
    """Gap between the e1-coefficient of the lift and the first-order term.

    The e1-coefficient equals ``sum_j (dg/dx^j)(x) * X_j[1]`` exactly: all higher
    terms lie in rad^2, which has no e1-component. The first-order term takes
    dg/dx^j from ``expr.diff`` (one diff and one eval memo across the slots), the
    lift from Taylor arithmetic: the gap compares two independent routes."""
    lifted = taylor_lift(e, X, A, info)
    diff_memo, eval_memo = {}, {}
    first_order = sum(ex.eval_real(ex.diff(e, j + 1, diff_memo), X[:, 0], eval_memo) * X[j, 1]
                      for j in range(len(X)))
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
        if not math.isfinite(value):
            raise AlgebraFormatError(
                f"coefficient {tokens[i].group('num')} is not a finite number in {text!r}")
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
        if v != 0.0:
            parts.append(f"{'-' if v < 0 else '+'} {abs(v):.17g} {A.labels[i]}")
    return " ".join(parts)


def parse_point(text: str, A: StructureConstants) -> np.ndarray:
    """Parse a semicolon-separated list of element literals into an (m, n)
    array; every slot must hold a literal."""
    pieces = text.split(";")
    if not all(p.strip() for p in pieces):
        raise AlgebraFormatError(f"empty slot in point literal {text!r}")
    return np.vstack([parse_element(p, A) for p in pieces])
