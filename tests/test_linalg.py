"""The one rank rule of ``linalg`` and its callers."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localalg.linalg import (
    _full_rank_modes,
    _svd_rank,
    canonical_signs,
    norm,
    nullspace_rows,
    orthonormal_rows,
    rank,
)

from util import reference_canonical_signs


def _assert_orthonormal(rows):
    assert_allclose(rows @ rows.T, np.eye(rows.shape[0]), atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (0, 3), (3, 0), (0, 0)])
def test_zero_and_empty_matrices_have_rank_zero(shape):
    zero = np.zeros(shape)
    assert rank(zero) == 0
    assert orthonormal_rows(zero).shape == (0, shape[1])
    null = nullspace_rows(zero)
    assert null.shape == (shape[1], shape[1])
    _assert_orthonormal(null)


def test_rank_ignores_inserted_zero_columns():
    rng = np.random.default_rng(4)
    for rows, cols, r in ((5, 7, 3), (8, 4, 4), (1, 6, 1), (6, 6, 0)):
        matrix = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        padded = np.zeros((rows, 3 * cols))
        padded[:, np.sort(rng.choice(3 * cols, cols, replace=False))] = matrix
        assert rank(matrix) == rank(padded) == r


def test_rank_of_a_stack_is_the_block_diagonal_rank_under_one_ref():
    # the blocks' singular values are the block-diagonal matrix's, so the
    # stack is ranked by the largest of them all: 1e-6 is null next to 1e3 at
    # tol 1e-8, though it would count against its own block
    rng = np.random.default_rng(6)
    stack = np.zeros((3, 4, 5))
    stack[0, :3] = 1e3 * rng.standard_normal((3, 5))
    stack[1, :2] = 1e-6 * rng.standard_normal((2, 5))
    stack[2, :4] = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    dense = np.zeros((12, 15))
    for b in range(3):
        dense[4 * b:4 * b + 4, 5 * b:5 * b + 5] = stack[b]
    assert rank(stack, 1e-8) == rank(dense, 1e-8) == 3 + 0 + 2
    assert rank(stack[1:], 1e-8) == rank(dense[4:, 5:], 1e-8) == 2 + 2
    assert rank(np.zeros((0, 0, 5))) == rank(np.zeros((2, 3, 0))) == 0


def test_zero_matrix_right_singular_vectors_are_the_identity():
    stack = np.zeros((3, 2, 4))
    stack[1, 0, 0] = 1.0
    ranks, vh = _svd_rank(stack, 1e-9, full_matrices=True)
    assert list(ranks) == [0, 1, 0]
    assert_allclose(vh[0], np.eye(4))
    assert_allclose(vh[2], np.eye(4))


def test_rank_zero_matrix_that_is_not_zero_keeps_its_right_singular_vectors():
    # round-off under a scale has rank 0 but is no zero matrix: the identity
    # goes only where every entry is zero
    roundoff = 1e-16 * np.random.default_rng(3).standard_normal((2, 4, 3))
    stack = np.concatenate([roundoff, np.zeros((1, 4, 3))])
    ranks, vh = _svd_rank(stack, 1e-9, scale=1.0)
    assert list(ranks) == [0, 0, 0]
    assert np.array_equal(vh[:2], np.linalg.svd(roundoff, full_matrices=False)[2])
    assert np.array_equal(vh[2], np.eye(3))
    rank, vh = _svd_rank(roundoff[0], 1e-9, scale=1.0)
    assert rank == 0 and np.array_equal(vh, np.linalg.svd(roundoff[0])[2])


def test_tall_matrix():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 3))
    assert rank(M) == 2
    span = orthonormal_rows(M)
    assert span.shape == (2, 3)
    _assert_orthonormal(span)
    assert_allclose(M - (M @ span.T) @ span, 0.0, atol=1e-12)
    null = nullspace_rows(M)
    assert null.shape == (1, 3)
    assert_allclose(M @ null.T, 0.0, atol=1e-12)


def test_wide_matrix_nullspace_is_complete():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((2, 5))
    assert rank(M) == 2
    null = nullspace_rows(M)
    assert null.shape == (3, 5)
    _assert_orthonormal(null)
    assert_allclose(M @ null.T, 0.0, atol=1e-12)
    assert_allclose(null @ orthonormal_rows(M).T, 0.0, atol=1e-12)


def test_stack_reference_is_the_largest_value_of_any_mode():
    # every value of mode 1 lies below tol times the largest value of mode 0
    stack = np.stack([np.diag([1.0, 0.5]), np.diag([1e-10, 3e-10])])
    ranks, _ = _svd_rank(stack, 1e-9)
    assert list(ranks) == [2, 0]
    assert rank(stack[1], 1e-9) == 2  # alone, mode 1 has full rank


def test_scale_sends_round_off_to_rank_zero():
    roundoff = 1e-16 * np.random.default_rng(2).standard_normal((3, 4))
    assert orthonormal_rows(roundoff, 1e-9).shape[0] == 3
    assert orthonormal_rows(roundoff, 1e-9, scale=1.0).shape[0] == 0
    # the reference is the larger of the scale and the largest singular value
    M = np.diag([1.0, 0.015])
    assert orthonormal_rows(M, 1e-2).shape[0] == 2
    assert orthonormal_rows(M, 1e-2, scale=0.5).shape[0] == 2
    assert orthonormal_rows(M, 1e-2, scale=2.0).shape[0] == 1


def test_a_value_equal_to_the_threshold_is_not_counted():
    M = np.diag([1.0, 1e-9])
    assert np.linalg.svd(M, compute_uv=False)[1] == 1e-9 * 1.0
    assert rank(M, 1e-9) == 1
    assert orthonormal_rows(M, 1e-9).shape[0] == 1
    assert nullspace_rows(M, 1e-9).shape[0] == 1
    above = np.diag([1.0, np.nextafter(1e-9, 1.0)])
    assert rank(above, 1e-9) == 2


def test_canonical_signs_match_the_row_loop():
    rng = np.random.default_rng(5)
    cases = [
        rng.standard_normal((6, 4)),
        np.array([[1.0, -1.0], [-1.0, 1.0], [-2.0, 2.0], [0.0, -3.0]]),  # ties: first wins
        np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -1.0], [0.0, -0.0, 0.0]]),  # zero rows
        np.round(rng.standard_normal((8, 3))),  # many ties
        np.zeros((0, 5)),
        np.zeros((3, 0)),
    ]
    for rows in cases:
        got = canonical_signs(rows)
        expected = reference_canonical_signs(rows)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    rows = -np.eye(2)
    canonical_signs(rows)
    assert np.array_equal(rows, -np.eye(2))  # the input is not changed


def test_norm_is_numpys_without_overflow():
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal((5, 7)), rng.standard_normal((3, 4, 4)) * 1e-150,
              np.zeros((2, 3)), np.array([[0.0, 1e-100], [3.0, -4.0]])):
        assert np.array_equal(norm(x), np.linalg.norm(x))  # bit for bit
        assert np.array_equal(norm(x, axis=-1), np.linalg.norm(x, axis=-1))
    assert norm(np.array([1e-320, 0.0])) == 1e-320  # numpy's squares underflow to 0
    big = np.array([[3e200, 4e200], [1.7e308, 0.0]])
    with np.errstate(over="raise"):
        assert norm(big) == pytest.approx(1.7e308, rel=1e-15)  # 5e200 is below its ulp
        assert_allclose(norm(big, axis=1), [5e200, 1.7e308], rtol=1e-15)


def _spared(stack, tol):
    """The modes the Gram screen spares, checked against the full-stack SVD:
    every spared mode has full rank there, and the SVD of the other modes
    alone gives their ranks and right singular vectors bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spared = _full_rank_modes(stack, tol)
    rank, vh = _svd_rank(stack, tol)
    assert np.all(rank[spared] == stack.shape[2])
    rank_rest, vh_rest = _svd_rank(stack[~spared], tol)
    assert np.array_equal(rank_rest, rank[~spared])
    assert vh_rest.tobytes() == vh[~spared].tobytes()
    return list(spared)


def _pad(*diagonals):
    """Tall (modes, 3, 2) stack of the given diagonals."""
    return np.stack([np.vstack([np.diag(d), np.zeros((1, 2))]) for d in diagonals])


def test_gram_screen_spares_full_rank_modes_below_the_largest_value():
    tol = 1e-3
    # mode 0 holds the largest value 1 and is never spared; mode 1's smallest
    # value lies just below tol * 1 but would count against its own 0.5;
    # mode 2 is well above the cut; mode 3 is singular; mode 4 is zero
    stack = _pad([1.0, 1.0], [0.5, tol * (1 - 1e-6)], [0.9, 0.2], [0.7, 0.0], [0.0, 0.0])
    assert _spared(stack, tol) == [False, False, True, False, False]
    assert list(_svd_rank(stack[1:2], tol)[0]) == [2]  # alone, mode 1 has full rank
    above = _pad([1.0, 1.0], [0.5, tol * (1 + 1e-6)])
    assert _spared(above, tol) == [False, True]


def test_gram_screen_keeps_every_mode_that_may_hold_the_largest_value():
    # modes whose largest values tie within err all stay in the SVD
    stack = _pad([1.0, 0.5], [1.0, 0.6], [1.0 - 1e-15, 0.7], [0.99, 0.8])
    assert _spared(stack, 1e-8) == [False, False, False, True]


@pytest.mark.parametrize("tol", [1.0, 2.0, 1e300])
def test_gram_screen_spares_nothing_at_a_cut_above_the_largest_value(tol):
    stack = _pad([1.0, 1.0], [0.5, 0.5], [0.9, 0.9])
    assert _spared(stack, tol) == [False] * 3


def test_gram_screen_at_tol_zero_spares_only_nonsingular_modes():
    stack = _pad([1.0, 1.0], [0.5, 1e-3], [0.5, 0.0], [0.0, 0.0])
    assert _spared(stack, 0.0) == [False, True, False, False]


def test_gram_screen_spares_no_wide_mode():
    stack = np.random.default_rng(8).standard_normal((4, 2, 3))
    stack[0] *= 10.0
    assert _spared(stack, 1e-8) == [False] * 4


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
def test_gram_screen_out_of_the_float_range_spares_nothing(scale):
    # 1e160 overflows the Gram (not finite); at 1e-160 its entries underflow
    # and the tiny term of err is larger than every eigenvalue
    stack = _pad([1.0, 1.0], [0.5, 0.5], [0.9, 0.2], [0.7, 0.0]) * scale
    assert _spared(stack, 1e-8) == [False] * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_screen_of_a_non_finite_stack_spares_nothing(bad):
    stack = _pad([1.0, 1.0], [0.5, 0.5], [0.9, 0.9])
    stack[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _full_rank_modes(stack, 1e-8).any()
