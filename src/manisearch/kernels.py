"""Hot objective-evaluation kernels, on stacks of points.

The kernels here sit inside the innermost evaluation loop of benchmark
runs (one call per trial chunk, up to ~10^5 calls per grid): the
smoothed entrywise absolute sum and the masked residuals of a factored
low-rank matrix.  Each takes a stack, one point per leading index, and
returns one value per point, value i bitwise the same in any stack
holding point i.  That holds because every reduction runs over the
C-contiguous rows of an array (``row_sums``, and the (1, n) @ (n, 1)
products of ``row_dots``): numpy sums such a row as it sums the 1-D
array, while a column-major stack, which fancy indexing can produce,
is summed in another order.  They are vectorised numpy; BLAS-bound
operations (QR, SVD, matrix products) are called directly where needed
and are not routed through here.
"""

from __future__ import annotations

import numpy as np

# read by perfbench/run.py for its environment report
USING_NUMBA = False


def row_sums(A: np.ndarray) -> np.ndarray:
    """Sum of the entries of each ``A[i]``, added as ``A[i].sum()`` adds them."""
    return np.add.reduce(np.ascontiguousarray(A).reshape(len(A), -1), axis=1)


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[i].ravel() @ B[i].ravel()`` for each i, rounded as the 1-D dot rounds."""
    A = np.ascontiguousarray(A).reshape(len(A), 1, -1)
    B = np.ascontiguousarray(B).reshape(len(B), -1, 1)
    return (A @ B)[:, 0, 0]


def smooth_l1_sum(C: np.ndarray, eps: float) -> np.ndarray:
    """Sum of sqrt(c_ij^2 + eps^2) over the entries of each ``C[i]``."""
    return row_sums(np.sqrt(C * C + eps * eps))


def _masked_residuals(U, S, V, rows, cols, vals) -> np.ndarray:
    # the observed entries of each (U[i] * S[i]) @ V[i].T, minus vals; take
    # keeps the gathered factors C-contiguous, so each entry's r terms add
    # in order
    terms = (np.take(U, rows, axis=1) * S[:, None, :]) * np.take(V, cols, axis=1)
    return np.add.reduce(terms, axis=2) - vals


def masked_residual_sq(U, S, V, rows, cols, vals) -> np.ndarray:
    """Squared residual sum over observed entries of each factored matrix.

    Matrix i is ``(U[i] * S[i]) @ V[i].T``; only entries ``(rows[t], cols[t])``
    are reconstructed, so the full product is never materialised.
    """
    d = _masked_residuals(U, S, V, rows, cols, vals)
    return row_dots(d, d)


def masked_residual_abs(U, S, V, rows, cols, vals) -> np.ndarray:
    """Absolute residual sum over observed entries of each factored matrix."""
    return row_sums(np.abs(_masked_residuals(U, S, V, rows, cols, vals)))
