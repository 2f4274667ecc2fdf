"""Finite-dimensional local commutative unital algebras over the reals.

An algebra A of real dimension n is described by its structure constants:
an n x n x n tensor C with ``e_i * e_j = sum_k C[i, j, k] e_k`` in a fixed
basis whose first element is the unit. Elements are plain length-n numpy
vectors of coefficients in that basis; the coefficient of the unit is the
"real part".

The module computes the structural invariants needed downstream: the
radical (nilpotent ideal) via the trace-form kernel, a standard basis (the
unit plus monomials in a minimal generating set, or pseudobasis, of the
radical) found in one graded pass of batched products, with the descending
power filtration of the radical (past rad^2 on the pseudobasis maps), and
the socle (annihilator of the radical) as a rank.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (
    AlgebraFormatError,
    DimensionMismatch,
    SpanFailure,
)

Element = np.ndarray


@dataclass(frozen=True)
class StructureConstants:
    """The multiplication table of an algebra in a fixed basis.

    ``C[i, j, k]`` is the e_k-coefficient of e_i * e_j. Index 0 is the unit.
    """

    n: int
    labels: tuple[str, ...]
    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.shape != (self.n, self.n, self.n):
            raise DimensionMismatch(
                f"structure tensor shape {C.shape} != ({self.n},)*3"
            )
        if len(self.labels) != self.n:
            raise DimensionMismatch("label count != n")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "labels", tuple(self.labels))

    # -- elements ----------------------------------------------------------

    def element(self, coeffs: Sequence[float]) -> Element:
        a = np.asarray(coeffs, dtype=float)
        if a.shape != (self.n,):
            raise DimensionMismatch(f"element length {a.shape} != ({self.n},)")
        return a

    def zero(self) -> Element:
        return np.zeros(self.n)

    def unit(self) -> Element:
        u = np.zeros(self.n)
        u[0] = 1.0
        return u

    # -- multiplication operators -------------------------------------------

    def basis_mult_matrices(self) -> np.ndarray:
        """Stacked multiplication matrices of all basis elements, shape (n, n, n)."""
        return np.swapaxes(self.C, 1, 2)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraFormatError(f"unknown basis label {label!r}") from None


# -- construction -------------------------------------------------------------


def _default_labels(n: int) -> tuple[str, ...]:
    return ("1",) + tuple(f"e{i}" for i in range(1, n))


def truncated_poly_algebra(order: int) -> StructureConstants:
    """R[t]/(t^order): basis 1, t, ..., t^(order-1)."""
    if order < 1:
        raise AlgebraFormatError("truncation order must be >= 1")
    n = order
    C = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            if i + j < n:
                C[i, j, i + j] = 1.0
    return StructureConstants(n, _default_labels(n), C)


def square_zero_algebra(generators: int) -> StructureConstants:
    """R[x_1..x_r]/(all degree-2 products): r generators, all products zero."""
    if generators < 1:
        raise AlgebraFormatError("need at least one generator")
    n = generators + 1
    C = np.zeros((n, n, n))
    C[0] = C[:, 0] = np.eye(n)  # 1 * e_j = e_j * 1 = e_j
    return StructureConstants(n, _default_labels(n), C)


def _dimension(digits: str, units: int = 0) -> int:
    """``int(digits) + units``, refused from 108 on, before any array is made:
    ``validate_algebra``'s n^4 float64 associativity temporary passes 1 GiB."""
    digits = digits.lstrip("0") or "0"  # and no int() of thousands of digits
    if len(digits) > 3 or (n := int(digits) + units) > 107:
        raise AlgebraFormatError("algebra dimension over 107: validating it would take "
                                 "an n^4 float64 array of more than 1 GiB")
    return n


def preset(name: str) -> StructureConstants:
    """Resolve a named algebra: ``dual``, ``trunc:k``, ``square:r``."""
    if name == "dual":
        return truncated_poly_algebra(2)
    m = re.fullmatch(r"trunc:(\d+)", name)
    if m:
        return truncated_poly_algebra(_dimension(m.group(1)))
    m = re.fullmatch(r"square:(\d+)", name)
    if m:
        return square_zero_algebra(_dimension(m.group(1), 1) - 1)
    raise AlgebraFormatError(f"unknown preset {name!r}")


_TERM_RE = re.compile(r"\s*([+-]?\s*\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*\*\s*(\S+)\s*")


def from_spec(text: str) -> StructureConstants:
    """Parse the plain-text algebra spec format.

    Line 1: ``algebra n=<int>``; line 2: ``basis 1 <name1> ...``; then
    ``mul <namei> <namej> = <coef>*<namek> [+ <coef>*<namek> ...]`` lines
    (``0`` for an explicit zero product). Omitted products default to zero
    and the unit row is implicit.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("algebra"):
        raise AlgebraFormatError("first line must be 'algebra n=<int>'")
    m = re.fullmatch(r"algebra\s+n=(\d+)", lines[0])
    if not m:
        raise AlgebraFormatError(f"bad header line: {lines[0]!r}")
    n = _dimension(m.group(1))
    if len(lines) < 2 or not lines[1].startswith("basis"):
        raise AlgebraFormatError("second line must be 'basis <names...>'")
    labels = tuple(lines[1].split()[1:])
    if len(labels) != n:
        raise AlgebraFormatError(f"expected {n} basis names, got {len(labels)}")
    if labels[:1] != ("1",):
        raise AlgebraFormatError("first basis name must be '1'")
    index = {name: i for i, name in enumerate(labels)}
    if len(index) != n:
        raise AlgebraFormatError("duplicate basis names")

    C = np.zeros((n, n, n))
    C[0] = C[:, 0] = np.eye(n)  # 1 * e_j = e_j * 1 = e_j

    seen: set[frozenset[int]] = set()
    for ln in lines[2:]:
        m = re.fullmatch(r"mul\s+(\S+)\s+(\S+)\s*=\s*(.+)", ln)
        if not m:
            raise AlgebraFormatError(f"bad line: {ln!r}")
        ni, nj, rhs = m.groups()
        if ni not in index or nj not in index:
            raise AlgebraFormatError(f"unknown basis name in: {ln!r}")
        i, j = index[ni], index[nj]
        if frozenset((i, j)) in seen:
            raise AlgebraFormatError(f"product of {ni} and {nj} given twice: {ln!r}")
        seen.add(frozenset((i, j)))
        row = [0.0] * n  # Python floats: an overflowing sum becomes inf quietly
        rhs = rhs.strip()
        if rhs != "0":
            pos = 0
            first = True
            while pos < len(rhs):
                tm = _TERM_RE.match(rhs, pos)
                if not tm or (not first and tm.group(1).lstrip()[0] not in "+-"):
                    raise AlgebraFormatError(f"bad product expression: {rhs!r}")
                coef = float(tm.group(1).replace(" ", ""))
                name = tm.group(2)
                if name not in index:
                    raise AlgebraFormatError(f"unknown basis name {name!r} in: {ln!r}")
                row[index[name]] += coef
                pos = tm.end()
                first = False
            if not np.all(np.isfinite(row)):
                raise AlgebraFormatError(f"coefficient out of the float range in: {ln!r}")
        C[i, j] = row
        C[j, i] = row
    return StructureConstants(n, labels, C)


def load_spec(path: str) -> StructureConstants:
    """Parse a spec file; one that cannot be opened or read as UTF-8 text
    (OSError, ValueError) is an AlgebraFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:
        reason = getattr(e, "strerror", None) or e
        raise AlgebraFormatError(f"cannot read spec {path}: {reason}") from None
    return from_spec(text)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    where: tuple
    detail: float

    def __str__(self):
        return f"{self.axiom} violated at {self.where} (deviation {self.detail:.3e})"


def validate_algebra(A: StructureConstants) -> tuple[list[Violation], np.ndarray | None]:
    """Check commutativity, associativity, the unit row and locality.

    Returns one entry per violated axiom with a worst-offender witness, and
    the ``radical_basis`` the locality check took (None when an axiom fails
    first); no entry means the tensor describes a valid local algebra. Raises
    AlgebraFormatError when the associativity products overflow, since no
    deviation can then be measured, or when ``radical_basis`` does.
    Associativity takes GEMMs of (n^2, n) by (n, n^2) unfoldings of C:
    (e_i e_j) e_k at [i, j, k, m], minus e_i (e_j e_k) made at [j, k, i, m],
    which for a commutative C is the first product, bit for bit; the
    deviation is then reduced slab by slab.
    """
    C, n = A.C, A.n
    commutator, unit = np.abs(C - np.swapaxes(C, 0, 1)), np.abs(C[0] - np.eye(n))
    with np.errstate(over="ignore", invalid="ignore"):
        left = (C.reshape(n * n, n) @ C.reshape(n, n * n)).reshape((n,) * 4)
        # for C symmetric in i, j (every tensor the CLI loads) the same GEMM
        right = (left if not commutator.any() else (C.reshape(n * n, n) @ np.swapaxes(
            C, 0, 1).reshape(n, n * n)).reshape((n,) * 4)).transpose(2, 0, 1, 3)
        # |deviation| by slabs of rows i, at most 2^15 entries, so no second n^4
        # array: each slab's max (NaN or inf if any entry is) and flat argmax
        step = max(1, 2**15 // n**3)
        slabs = [(d.max(), i * n**3 + int(np.argmax(d))) for i, d in (
            (i, np.abs(left[i:i + step] - right[i:i + step])) for i in range(0, n, step))]
    if not all(math.isfinite(top) for top, _ in slabs):
        raise AlgebraFormatError("products of the structure constants leave the float range")
    out = [Violation(axiom, head + tuple(map(int, np.unravel_index(flat, shape))), float(worst))
           for axiom, (worst, flat), shape, head in (
               ("commutativity", (commutator.max(), np.argmax(commutator)), C.shape, ()),
               ("associativity", max(slabs, key=lambda slab: slab[0]), (n,) * 4, ()),
               ("unit", (unit.max(), np.argmax(unit)), unit.shape, (0,)))
           if worst > linalg.RANK_TOL]

    rad = None if out else radical_basis(A)
    if rad is not None and rad.shape[0] != n - 1:
        out.append(Violation("locality", (rad.shape[0],), float(n - 1 - rad.shape[0])))
    return out, rad


# -- arithmetic ----------------------------------------------------------------


def mul(A: StructureConstants, a: Element, b: Element) -> Element:
    """Product of two elements: bilinear contraction against C."""
    a = A.element(a)
    b = A.element(b)
    return np.einsum("i,j,ijk->k", a, b, A.C)


# -- radical, filtration, standard basis ---------------------------------------


def radical_basis(A: StructureConstants) -> np.ndarray:
    """Orthonormal basis (rows) of the radical, via the trace-form kernel.

    Over the reals the kernel of T[i,j] = tr(L_{e_i e_j}) is exactly the set
    of nilpotent elements. Raises AlgebraFormatError when T overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.einsum("ijk,k->ij", A.C, np.einsum("kjj->k", A.C))
    if not np.all(np.isfinite(gram)):
        raise AlgebraFormatError("the trace form of the algebra leaves the float range")
    return linalg.nullspace_rows(gram)


def graded_multiindices(parts: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of total degree 1..max_degree, ordered by degree, then
    lexicographically (earlier positions dominate, higher exponent first)."""
    for degree in range(1, max_degree + 1):
        for word in itertools.combinations_with_replacement(range(parts), degree):
            yield tuple(word.count(i) for i in range(parts))


@dataclass(frozen=True)
class StandardBasisInfo:
    """Change of basis to a standard basis (unit + radical monomials).

    ``P`` has the standard basis vectors as columns (in input coordinates);
    coefficients transform by ``P^{-1}``. ``pseudobasis`` indexes the minimal
    radical generators inside the standard basis, ``monomial`` maps every
    standard radical index to its exponent word in those generators,
    ``socle`` lists the indices annihilating the radical, ``nu`` is the
    radical nilpotency index and ``radical`` the orthonormal rows of
    ``radical_basis`` (input coordinates).
    """

    P: np.ndarray
    pseudobasis: tuple[int, ...]
    monomial: dict[int, tuple[int, ...]]
    socle: tuple[int, ...]
    nu: int
    radical: np.ndarray
    filtration_dims: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def breve_indices(self) -> tuple[int, ...]:
        """Standard radical indices that are not in the socle."""
        return tuple(k for k in range(1, self.n) if k not in self.socle)


def standard_basis(A: StructureConstants, rad: np.ndarray) -> StandardBasisInfo:
    """Compute a standard basis: {1} plus monomials in a pseudobasis.

    The pseudobasis g_1..g_r spans the complement of rad^2 in rad. rad^2 is
    one product with the maps x -> x * e of the radical basis side by side,
    each further power one with the maps x -> x * g_t alone, as rad^(k+1) =
    rad^k g (Nakayama's lemma; k >= 1, C associative); their ranks are taken
    against the norm of C. In one graded pass the candidates of degree d are
    the kept monomials u of degree d-1 times each g_t from u's last generator
    on, visited higher exponent first: a monomial order, so the kept words
    form an order ideal (Faugere, Gianni, Lazard & Mora 1993). Each u * g_t
    is orthogonalized against the kept span and kept when the residual's
    norm exceeds RANK_TOL times the larger of that norm and its term size
    ``|| |u| . |L_{g_t}| ||``: the only singular value of one row is its
    norm, so this is ``linalg._svd_rank``'s rule with the term size as scale,
    and no candidate needs an SVD. A kept u is in the socle when the next
    batch, u * g_t for every t, vanishes. SpanFailure signals a radical that
    is not nilpotent or not n-1 dimensional, monomials that never span it, or
    socle monomials not as many as ``socle_dim(A, rad)``: monomials in generic
    generators need not be adapted to the socle. AlgebraFormatError signals
    products that leave the float range. ``rad`` is ``radical_basis(A)``, as
    ``validate_algebra`` returns it.
    """
    scale = float(linalg.norm(A.C))

    def power(prev: np.ndarray, by: np.ndarray) -> np.ndarray:  # prev times the maps by
        rank, vh = linalg._svd_rank((prev @ by).reshape(-1, A.n), linalg.RANK_TOL, scale)
        if rank >= prev.shape[0]:
            raise SpanFailure("radical is not nilpotent; input is not a local algebra")
        return vh[:rank]

    chain = [rad]
    if rad.shape[0]:  # rad^2 on the maps x -> x * rad[v]
        chain.append(power(rad, np.einsum("vj,ijk->ivk", rad, A.C).reshape(A.n, -1)))
    rad2 = chain[-1]  # the empty rad itself when n = 1
    # minimal generators: complement of rad^2 inside rad
    pseudo = linalg.orthonormal_rows(rad - (rad @ rad2.T) @ rad2)
    r = pseudo.shape[0]
    maps = np.einsum("ti,ijk->tjk", pseudo, A.C)  # u @ maps[t] = u * g_t
    step = np.swapaxes(maps, 0, 1).reshape(A.n, r * A.n)  # x -> x * g_t side by side
    while chain[-1].shape[0] > 0:  # rad^(k+1) = rad^k g (Nakayama); ranks fall, or it raises
        chain.append(power(chain[-1], step))
    nu = len(chain)
    if rad.shape[0] != A.n - 1:
        raise SpanFailure(f"radical dimension {rad.shape[0]} != n-1; input is not local")
    abs_maps = np.abs(maps)
    span = np.zeros((A.n - 1, A.n))  # orthonormal rows of the kept monomials
    selected: list[Element] = []
    exponents: list[tuple[int, ...]] = []
    socle: list[int] = []
    layer, words, top = A.unit()[None, :], [(0,) * r], max(nu - 1, 1)
    for degree in range(1, top + 2):
        products = np.einsum("uj,tjk->utk", layer, maps)
        if not np.isfinite(products).all():
            raise AlgebraFormatError("pseudobasis monomials leave the float range")
        if degree > 1:
            worst = np.abs(products).max(axis=(1, 2), initial=0.0)
            sizes = np.array([math.hypot(*u) for u in layer.tolist()])
            flags = worst <= linalg.RANK_TOL * (1.0 + sizes)
            socle += [len(selected) - len(layer) + 1 + int(u) for u in np.flatnonzero(flags)]
        if degree > top or len(selected) == A.n - 1:
            break
        terms = np.einsum("uj,tjk->utk", np.abs(layer), abs_maps)
        start = len(selected)
        candidates = sorted(
            ((w[:t] + (w[t] + 1,) + w[t + 1:], u, t) for u, w in enumerate(words)
             for t in range(max((i for i, p in enumerate(w) if p), default=0), r)),
            reverse=True)
        for word, u, t in candidates:
            vec, k = products[u, t], len(selected)
            rest = vec - (span[:k] @ vec) @ span[:k]
            rest -= (span[:k] @ rest) @ span[:k]  # twice is enough
            size, term = math.hypot(*rest.tolist()), math.hypot(*terms[u, t].tolist())
            if size > linalg.RANK_TOL * max(size, term):  # _svd_rank's rule on one row
                span[k] = rest / size
                selected.append(vec)
                exponents.append(word)
                if len(selected) == A.n - 1:
                    break
        layer, words = np.reshape(selected[start:], (-1, A.n)), exponents[start:]
        if not words:
            break
    if len(selected) != A.n - 1:
        raise SpanFailure("pseudobasis monomials do not span the radical")
    if len(socle) != socle_dim(A, rad):
        raise SpanFailure("standard basis monomials do not span the socle")

    return StandardBasisInfo(
        P=np.column_stack([A.unit()] + selected),
        pseudobasis=tuple(range(1, r + 1)),
        monomial={k + 1: exponents[k] for k in range(A.n - 1)},
        socle=tuple(socle),
        nu=nu,
        radical=rad,
        filtration_dims=tuple(c.shape[0] for c in chain),
    )


def standardize(A: StructureConstants,
                rad: np.ndarray) -> tuple[StructureConstants, StandardBasisInfo]:
    """Rewrite the algebra in its standard basis (labels 1, e1, ...); ``rad`` as there."""
    info = standard_basis(A, rad)
    n, P = A.n, info.P
    # einsum("si,tj,stu,ku->ijk", P, P, C, P^-1)'s three GEMMs on its path, in
    # its operand order and layouts, so the same bits: over s, then t, then u
    C = (A.C.reshape(n, n * n).T @ P).reshape(n, n, n)  # [t, u, i]
    C = (C.transpose(2, 1, 0).reshape(n * n, n) @ P).reshape(n, n, n)  # [i, u, j]
    C = C.transpose(0, 2, 1).reshape(n * n, n) @ np.linalg.inv(P).T
    return StructureConstants(n, _default_labels(n), C.reshape(n, n, n)), info


def socle_dim(A: StructureConstants, rad: np.ndarray) -> int:
    """Dimension of the socle {x in rad : x * rad = 0}; ``rad`` is ``radical_basis(A)``.

    In radical coordinates, x = y @ rad with y in the kernel of the stacked
    maps y -> (y @ rad) * e over the radical basis vectors e, each column
    divided by its term size ``|| |rad_a| |C| |rad| ||``, which bounds its
    round-off: small products count next to large ones, round-off not. That
    kernel has dimension r minus the rank, so no basis of it is built.
    """
    r, n = rad.shape
    # (rad_a * rad_b)_k at [a, b, k], of the values and of their term sizes
    products, terms = (R @ (R @ C.reshape(n, -1)).reshape(r, n, n)
                       for R, C in ((rad, A.C), (abs(rad), abs(A.C))))
    size = linalg.norm(terms.reshape(r, r * n), axis=1)
    size[size == 0.0] = 1.0  # a column without terms is exactly zero
    rank, _ = linalg._svd_rank(products.reshape(r, r * n).T / size, linalg.RANK_TOL, 1.0,
                               compute_uv=False)
    return r - int(rank)
