"""Dense linear-algebra helpers: canonical orthonormal bases, kernels, ranks.

Subspace bases are stored as 2-d arrays whose *rows* are the basis vectors.
All bases returned here are orthonormalized and sign-canonicalized so that
repeated runs produce identical output.

Every rank decision follows one rule, in ``_svd_rank``: a singular value
counts when it exceeds ``tol * ref``, where ``ref`` is the larger of the
largest singular value of the matrix (of the whole stack, for a stack of
matrices) and a ``scale`` the caller works out from its inputs. Without a
scale the rule is relative, so a matrix of pure round-off keeps full rank; a
scale such as the norm of the structure constants sends it to rank 0. One
row's only singular value is its norm, which a caller may judge directly.
A zero matrix, empty ones included, has rank 0 and the identity as its
right singular vectors; the socle guard of ``algebra.standard_basis`` takes
the rank alone (``compute_uv``). ``rank`` drops all-zero columns first, which
change no singular value, and ranks a stack as the block-diagonal matrix of its blocks.

``_full_rank_modes`` spares the SVD tall modes proved full rank: the float
Gram G = S^T S has ``eigvalsh`` values within err = 4 (rows + cols) (eps
trace G + (rows + cols) tiny) of sigma^2 (Higham 2002, 3.5; Weyl's
inequality, Golub & Van Loan 8.1; underflow; as much again for the SVD). It
spares lambda_min - err > (tol ref_hi)^2, ref_hi^2 = max(lambda_max + err),
unless lambda_max + err >= max(lambda_max - err); a non-finite G spares none.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9


def _svd_rank(matrix: np.ndarray, tol: float, scale: float = 0.0,
              full_matrices: bool = False, compute_uv: bool = True):
    """Ranks and right singular vectors of a matrix or (modes, rows, cols) stack.

    Returns ``(rank, vh)``: an int for a matrix or an int array for a stack,
    and ``vh`` as ``np.linalg.svd`` gives it (None without ``compute_uv``).
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if compute_uv:
        _, s, vh = np.linalg.svd(matrix, full_matrices=full_matrices)
    else:
        s, vh = np.linalg.svd(matrix, compute_uv=False), None
    rank = (s > tol * max(float(s.max(initial=0.0)), scale)).sum(-1)
    # a zero mode has rank 0, so only then is the matrix searched for one
    if vh is not None and not rank.all() and (zero := ~matrix.any(axis=(-2, -1))).any():
        vh[zero] = np.eye(*vh.shape[-2:])
    return rank, vh


def _full_rank_modes(stack: np.ndarray, tol: float) -> np.ndarray:
    """The modes of a stack that the module's Gram screen spares the SVD."""
    modes, r, c = stack.shape
    with np.errstate(over="ignore", invalid="ignore"):  # out of range certifies nothing
        if r < c or not np.isfinite(G := np.swapaxes(stack, 1, 2) @ stack).all():
            return np.zeros(modes, dtype=bool)  # a wide mode has null vectors
        lam, eps, tiny = np.linalg.eigvalsh(G), np.finfo(float).eps, np.finfo(float).tiny
        err = 4 * (r + c) * (eps * np.trace(G, axis1=1, axis2=2) + (r + c) * tiny)
        hi, lo = lam[:, -1] + err, lam[:, -1] - err
        return (lam[:, 0] - err > np.square(tol) * hi.max()) & (hi < lo.max())


def norm(x: np.ndarray, axis: int | None = None):
    """``np.linalg.norm`` without overflow or underflow of its squares; same bits otherwise."""
    scale = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))[1] - 1)
    return np.linalg.norm(x / scale, axis=axis) * np.squeeze(scale, axis)


def canonical_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    rows = np.array(rows, dtype=float)
    if rows.size:
        lead = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
        rows[lead < 0] *= -1.0
    return rows


def orthonormal_rows(vectors: np.ndarray, tol: float = RANK_TOL,
                     scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis for the row span of ``vectors`` (rank by ``_svd_rank``)."""
    rank, vh = _svd_rank(vectors, tol, scale)
    return canonical_signs(vh[:rank])


def rank(matrix: np.ndarray, tol: float = RANK_TOL) -> int:
    """Numerical rank by the rule of ``_svd_rank``, on the nonzero columns. A
    (blocks, rows, cols) stack is ranked as the block-diagonal matrix of its
    blocks: the sum of their ranks under one ``ref``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    keep = matrix.any(axis=tuple(range(matrix.ndim - 1)))
    return int(np.sum(_svd_rank(matrix[..., keep], tol, compute_uv=False)[0]))


def nullspace_rows(matrix: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of ``{x : matrix @ x = 0}``.

    The directions ``_svd_rank`` does not count are null; rows come out
    ordered by ascending singular value.
    """
    # full_matrices so the kernel of a wide matrix is complete
    rank, vh = _svd_rank(matrix, tol, full_matrices=True)
    return canonical_signs(vh[rank:][::-1])
