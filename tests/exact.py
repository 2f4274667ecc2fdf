"""Exact oracle for the torus dimensions: per-mode nullities over the rationals.

Every Fourier mode k of the trig space decouples, and the solutions on it
are the kernel of a small symbol S(k); the float pipeline ranks the symbols
by one SVD with a tolerance. Here each symbol is written out entry by entry
from the structure constants, read exactly as Fractions, and ranked by
Gaussian elimination over the rationals, so no rank decision is shared with
the code under test.

- Functions: the unknown is g in A (the mode's coefficients). Its
  differential is k_a g_i at (coordinate a, component i); on slot j it is
  the n x n block W_j[i, c] = k_{c m + j} g_i, which must commute with
  every basis multiplication L_b.
- Forms: the unknowns are x[j, b], the coordinates of an A-linear form on
  the unnormalized frame, whose value at (coordinate c m + j, component i)
  is sum_b L_b[i, c] x[j, b]. Closedness on the mode k is
  k_alpha omega_beta - k_beta omega_alpha = 0 for alpha < beta.

The constant mode carries one copy of its kernel, every other pair of modes
+-k two (cos and sin), so a dimension is the nullity of mode 0 plus the sum
of the nullities over every nonzero k in the frequency box. The component
j0 of the solutions of one mode spans nullity(S) - nullity([S; R_j0]),
R_j0 the rows that read component j0.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np


def rank(rows) -> int:
    """Exact rank of a list of rational rows, by Gaussian elimination."""
    rows = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def mult_tables(A):
    """L_b[i][c] = coefficient of e_i in e_b e_c, exactly, from A.C."""
    C = np.asarray(A.C)
    return [[[Fraction(float(C[b, c, i])) for c in range(A.n)] for i in range(A.n)]
            for b in range(A.n)]


def function_symbol(L, m, k):
    """Rows of (W_j L_b - L_b W_j)[i, c] = 0 on g, for every slot j and b."""
    n = len(L)
    rows = []
    for j, b, i, c in product(range(m), range(n), range(n), range(n)):
        row = [Fraction(0)] * n
        for e in range(n):
            row[i] += k[e * m + j] * L[b][e][c]  # (W L)[i, c] = sum_e W[i, e] L[e, c]
            row[e] -= L[b][i][e] * k[c * m + j]  # (L W)[i, c] = sum_e L[i, e] W[e, c]
        rows.append(row)
    return rows


def form_values(L, m, coord, comp):
    """The row on x[j, b] (flat j * n + b) of the form value at (coord, comp)."""
    n = len(L)
    j, c = coord % m, coord // m
    row = [Fraction(0)] * (m * n)
    for b in range(n):
        row[j * n + b] = L[b][comp][c]
    return row


def form_symbol(L, m, k):
    """Closedness rows k_alpha omega_beta,i - k_beta omega_alpha,i on x."""
    n, N = len(L), len(L) * m
    rows = []
    for alpha in range(N):
        for beta in range(alpha + 1, N):
            for i in range(n):
                rows.append([k[alpha] * u - k[beta] * v for u, v in
                             zip(form_values(L, m, beta, i), form_values(L, m, alpha, i))])
    return rows


def mode_sum(nullity, N, degree):
    """nullity(0) plus nullity(k) over every nonzero k in the box, taking
    +-k together and k by its primitive direction (S(t k) = t S(k))."""
    cache = {}
    total = nullity((0,) * N)
    for k in product(range(-degree, degree + 1), repeat=N):
        if k > tuple(-v for v in k):
            key = tuple(v // gcd(*k) for v in k)
            if key not in cache:
                cache[key] = nullity(key)
            total += 2 * cache[key]
    return total


def dimensions(A, m, degree, breve):
    """The exact counterparts of the report keys of ``verify`` and ``forms``."""
    L = mult_tables(A)
    n, N = A.n, A.n * m

    def fn_null(k, extra=()):
        return n - rank(function_symbol(L, m, k) + list(extra))

    def form_null(k, extra=()):
        return m * n - rank(form_symbol(L, m, k) + list(extra))

    def unit_row(j0):
        return [[Fraction(int(i == j0)) for i in range(n)]]

    def component_rows(j0):
        return [form_values(L, m, a, j0) for a in range(N)]

    forms = mode_sum(form_null, N, degree)
    out = {
        "NULLSPACE_DIM": mode_sum(fn_null, N, degree),
        "FORM_NULLSPACE_DIM": forms,
        "H0_DIM": fn_null((0,) * N),
        "ZERO_MEAN_DIM": forms - form_null((0,) * N),
    }
    labels = A.labels
    for j0 in breve:
        out[f"DIM_ZBREVE[{labels[j0]}]"] = mode_sum(
            lambda k: form_null(k) - form_null(k, component_rows(j0)), N, degree)
        out[f"DEGREE0_DIM[{labels[j0]}]"] = mode_sum(
            lambda k: fn_null(k) - fn_null(k, unit_row(j0)), N, degree)
    return out
