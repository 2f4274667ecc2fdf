"""Finite-dimensional local commutative unital algebras over the reals.

An algebra A of real dimension n is described by its structure constants:
an n x n x n tensor C with ``e_i * e_j = sum_k C[i, j, k] e_k`` in a fixed
basis whose first element is the unit. Elements are plain length-n numpy
vectors of coefficients in that basis; the coefficient of the unit is the
"real part".

The module computes the structural invariants needed downstream: the
radical (nilpotent ideal) via the trace-form kernel, the descending power
filtration of the radical, a standard basis made of the unit plus monomials
in a minimal generating set (pseudobasis) of the radical, and the socle
(annihilator of the radical).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import (
    AlgebraFormatError,
    DimensionMismatch,
    NonUnitError,
    SpanFailure,
)

Element = np.ndarray

UNIT_THRESHOLD = 1e-9


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

    def basis_element(self, i: int) -> Element:
        e = np.zeros(self.n)
        e[i] = 1.0
        return e

    # -- multiplication operators -------------------------------------------

    def mult_matrix(self, a: Element) -> np.ndarray:
        """Matrix of multiplication by ``a`` acting on coefficient vectors."""
        return np.einsum("i,ijk->kj", a, self.C)

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
    C[0] = np.eye(n)
    for j in range(1, n):
        C[j, 0, j] = 1.0
    return StructureConstants(n, _default_labels(n), C)


def preset(name: str) -> StructureConstants:
    """Resolve a named algebra: ``dual``, ``trunc:k``, ``square:r``."""
    if name == "dual":
        return truncated_poly_algebra(2)
    m = re.fullmatch(r"trunc:(\d+)", name)
    if m:
        return truncated_poly_algebra(int(m.group(1)))
    m = re.fullmatch(r"square:(\d+)", name)
    if m:
        return square_zero_algebra(int(m.group(1)))
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
    n = int(m.group(1))
    if len(lines) < 2 or not lines[1].startswith("basis"):
        raise AlgebraFormatError("second line must be 'basis <names...>'")
    labels = tuple(lines[1].split()[1:])
    if len(labels) != n:
        raise AlgebraFormatError(f"expected {n} basis names, got {len(labels)}")
    if labels[0] != "1":
        raise AlgebraFormatError("first basis name must be '1'")
    index = {name: i for i, name in enumerate(labels)}
    if len(index) != n:
        raise AlgebraFormatError("duplicate basis names")

    C = np.zeros((n, n, n))
    C[0] = np.eye(n)
    for j in range(1, n):
        C[j, 0, j] = 1.0

    for ln in lines[2:]:
        m = re.fullmatch(r"mul\s+(\S+)\s+(\S+)\s*=\s*(.+)", ln)
        if not m:
            raise AlgebraFormatError(f"bad line: {ln!r}")
        ni, nj, rhs = m.groups()
        if ni not in index or nj not in index:
            raise AlgebraFormatError(f"unknown basis name in: {ln!r}")
        i, j = index[ni], index[nj]
        row = np.zeros(n)
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
        C[i, j] = row
        C[j, i] = row
    return StructureConstants(n, labels, C)


def load_spec(path: str) -> StructureConstants:
    with open(path, "r", encoding="utf-8") as fh:
        return from_spec(fh.read())


def resolve(source: str) -> StructureConstants:
    """Resolve either a preset name or a spec file path."""
    try:
        return preset(source)
    except AlgebraFormatError:
        return load_spec(source)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    where: tuple
    detail: float

    def __str__(self):
        return f"{self.axiom} violated at {self.where} (deviation {self.detail:.3e})"


def validate_algebra(A: StructureConstants, tol: float = 1e-9) -> list[Violation]:
    """Check commutativity, associativity, the unit row and locality.

    Returns one entry per violated axiom with a worst-offender witness;
    an empty list means the tensor describes a valid local algebra.
    """
    C = A.C
    out: list[Violation] = []

    comm = C - np.swapaxes(C, 0, 1)
    if np.abs(comm).max() > tol:
        where = np.unravel_index(np.argmax(np.abs(comm)), comm.shape)
        out.append(Violation("commutativity", tuple(int(w) for w in where),
                             float(np.abs(comm).max())))

    left = np.einsum("ijl,lkm->ijkm", C, C)
    right = np.einsum("jkl,ilm->ijkm", C, C)
    assoc = left - right
    if np.abs(assoc).max() > tol:
        where = np.unravel_index(np.argmax(np.abs(assoc)), assoc.shape)
        out.append(Violation("associativity", tuple(int(w) for w in where),
                             float(np.abs(assoc).max())))

    unit = C[0] - np.eye(A.n)
    if np.abs(unit).max() > tol:
        where = np.unravel_index(np.argmax(np.abs(unit)), unit.shape)
        out.append(Violation("unit", (0,) + tuple(int(w) for w in where),
                             float(np.abs(unit).max())))

    if not out:
        rad_dim = radical_basis(A).shape[0]
        if rad_dim != A.n - 1:
            out.append(Violation("locality", (rad_dim,), float(A.n - 1 - rad_dim)))
    return out


# -- arithmetic ----------------------------------------------------------------


def mul(A: StructureConstants, a: Element, b: Element) -> Element:
    """Product of two elements: bilinear contraction against C."""
    a = A.element(a)
    b = A.element(b)
    return np.einsum("i,j,ijk->k", a, b, A.C)


def invert(A: StructureConstants, a: Element, nu: int | None = None) -> Element:
    """Inverse of a unit ``a = c + r`` (r nilpotent) via the geometric series.

    Requires coordinates in which the non-unit basis directions are nilpotent
    (any standard basis qualifies); then c is the real part ``a[0]``.
    """
    a = A.element(a)
    c = a[0]
    if abs(c) <= UNIT_THRESHOLD * (1.0 + float(np.linalg.norm(a))):
        raise NonUnitError(f"real part {c} is numerically zero")
    terms = nu if nu is not None else A.n
    x = -a / c
    x[0] = 0.0  # x = -r/c
    out = A.unit()
    power = A.unit()
    for _ in range(1, terms):
        power = mul(A, power, x)
        out = out + power
    return out / c


def nilpotency_index(A: StructureConstants, a: Element,
                     tol: float = 1e-10) -> int | None:
    """Least S <= n with a^S = 0 within tolerance, or None."""
    a = A.element(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    power = a.copy()
    for S in range(1, A.n + 1):
        if np.abs(power).max() <= tol * scale**S:
            return S
        power = mul(A, power, a)
    return None


def real_part(a: Element) -> float:
    """Coefficient of the unit (standard basis coordinates)."""
    return float(a[0])


def radical_part(a: Element) -> Element:
    """a minus its real part times the unit (standard basis coordinates)."""
    out = np.array(a, dtype=float)
    out[0] = 0.0
    return out


# -- radical, filtration, standard basis ---------------------------------------


def trace_gram_matrix(A: StructureConstants) -> np.ndarray:
    """T[i, j] = trace of multiplication by e_i * e_j."""
    traces = np.einsum("kjj->k", A.C)
    return np.einsum("ijk,k->ij", A.C, traces)


def radical_basis(A: StructureConstants, tol: float = linalg.RANK_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the radical, via the trace-form kernel.

    Over the reals the kernel of T[i,j] = tr(L_{e_i e_j}) is exactly the set
    of nilpotent elements.
    """
    return linalg.nullspace_rows(trace_gram_matrix(A), tol)


def radical_filtration(
    A: StructureConstants, tol: float = linalg.RANK_TOL
) -> tuple[list[np.ndarray], int | None]:
    """Descending chain rad >= rad^2 >= ... >= 0 and the nilpotency index.

    Each chain entry is an orthonormal row basis; the chain ends with the
    first zero subspace. ``nu`` is the first power that vanishes, or None if
    the chain stalls (non-nilpotent radical, i.e. invalid input).
    """
    rad = radical_basis(A, tol)
    chain = [rad]
    current = rad
    while current.shape[0] > 0:
        if len(chain) > A.n:
            return chain, None
        products = np.array(
            [mul(A, u, v) for u in current for v in rad]
        ).reshape(-1, A.n)
        nxt = linalg.orthonormal_rows(products, tol) if products.size else \
            np.zeros((0, A.n))
        if nxt.shape[0] >= current.shape[0]:
            return chain, None
        chain.append(nxt)
        current = nxt
    return chain, len(chain)


def graded_multiindices(parts: int, max_degree: int,
                        min_degree: int = 1) -> Iterator[tuple[int, ...]]:
    """Exponent tuples ordered by total degree, then lexicographically
    (earlier positions dominate, higher exponent first within a degree)."""

    def compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    for degree in range(min_degree, max_degree + 1):
        yield from compositions(degree, parts)


@dataclass(frozen=True)
class StandardBasisInfo:
    """Change of basis to a standard basis (unit + radical monomials).

    ``P`` has the standard basis vectors as columns (in input coordinates);
    coefficients transform by ``P^{-1}``. ``pseudobasis`` indexes the minimal
    radical generators inside the standard basis, ``monomial`` maps every
    standard radical index to its exponent word in those generators,
    ``socle`` lists the indices annihilating the radical, and ``nu`` is the
    radical nilpotency index.
    """

    P: np.ndarray
    pseudobasis: tuple[int, ...]
    monomial: dict[int, tuple[int, ...]]
    socle: tuple[int, ...]
    nu: int
    filtration_dims: tuple[int, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def r(self) -> int:
        return len(self.pseudobasis)

    def breve_indices(self) -> tuple[int, ...]:
        """Standard radical indices that are not in the socle."""
        return tuple(k for k in range(1, self.n) if k not in self.socle)


def standard_basis(A: StructureConstants,
                   tol: float = linalg.RANK_TOL) -> StandardBasisInfo:
    """Compute a standard basis: {1} plus monomials in a pseudobasis.

    The pseudobasis is the orthogonal complement of rad^2 inside rad
    (a minimal generating set). Monomials are scanned in graded
    lexicographic order and kept whenever they raise the numerical rank;
    SpanFailure signals that they never span the radical.
    """
    chain, nu = radical_filtration(A, tol)
    if nu is None:
        raise SpanFailure("radical is not nilpotent; input is not a local algebra")
    rad = chain[0]
    rad2 = chain[1] if len(chain) > 1 else np.zeros((0, A.n))
    if rad.shape[0] != A.n - 1:
        raise SpanFailure(
            f"radical dimension {rad.shape[0]} != n-1; input is not local"
        )

    # minimal generators: complement of rad^2 inside rad
    if rad2.shape[0]:
        residual = rad - (rad @ rad2.T) @ rad2
    else:
        residual = rad
    pseudo = linalg.orthonormal_rows(residual, tol)
    r = pseudo.shape[0]

    selected: list[Element] = []
    exponents: list[tuple[int, ...]] = []
    span = np.zeros((0, A.n))
    for exp in graded_multiindices(r, max(nu - 1, 1)):
        vec = A.unit()
        for t, power in enumerate(exp):
            for _ in range(power):
                vec = mul(A, vec, pseudo[t])
        trial = np.vstack([span, vec[None, :]])
        trial_basis = linalg.orthonormal_rows(trial, tol)
        if trial_basis.shape[0] > span.shape[0]:
            selected.append(vec)
            exponents.append(exp)
            span = trial_basis
            if len(selected) == A.n - 1:
                break
    if len(selected) != A.n - 1:
        raise SpanFailure("pseudobasis monomials do not span the radical")

    P = np.column_stack([A.unit()] + selected)
    monomial = {k + 1: exponents[k] for k in range(A.n - 1)}
    pseudobasis = tuple(range(1, r + 1))

    socle = []
    for k, vec in enumerate(selected, start=1):
        worst = 0.0
        for t in range(r):
            prod = mul(A, vec, pseudo[t])
            worst = max(worst, float(np.abs(prod).max()))
        if worst <= tol * (1.0 + float(np.linalg.norm(vec))):
            socle.append(k)

    return StandardBasisInfo(
        P=P,
        pseudobasis=pseudobasis,
        monomial=monomial,
        socle=tuple(socle),
        nu=nu,
        filtration_dims=tuple(c.shape[0] for c in chain),
    )


def standardize(
    A: StructureConstants, info: StandardBasisInfo | None = None
) -> tuple[StructureConstants, StandardBasisInfo]:
    """Rewrite the algebra in its standard basis (labels 1, e1, ...)."""
    if info is None:
        info = standard_basis(A)
    Pinv = np.linalg.inv(info.P)
    C = np.einsum("si,tj,stu,ku->ijk", info.P, info.P, A.C, Pinv)
    return StructureConstants(A.n, _default_labels(A.n), C), info


def socle_basis(
    A: StructureConstants,
    info: StandardBasisInfo | None = None,
    tol: float = linalg.RANK_TOL,
) -> np.ndarray:
    """Orthonormal basis (rows) of {x in rad : x * rad = 0}.

    Computed as the kernel of the stacked multiplication maps by a radical
    basis, intersected with the radical itself.
    """
    rad = radical_basis(A, tol)
    if rad.shape[0] == 0:
        return np.zeros((0, A.n))
    stacked = [A.mult_matrix(e) for e in rad]
    stacked.append(np.eye(A.n) - rad.T @ rad)  # force membership in rad
    return linalg.nullspace_rows(np.vstack(stacked), tol)
