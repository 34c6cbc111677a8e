"""Row reductions, and the hot objective kernels built on them.

Every per-row sum and dot product of the package is ``row_sums`` or
``row_dots``: ``np.add.reduce`` over the rows of a C-contiguous array, a
dot being the row sum of the elementwise product.  numpy adds such a row
as it adds the 1-D row, in an order set by its length alone, so value i
is bitwise the same in every stack holding row i, at any memory offset.
A column-major stack, which fancy indexing can produce, is copied to rows
first, as numpy would add it in another order.  No row reduction calls
BLAS, whose SSE kernels round a dot by its operands' memory offsets.
Matrix products stay in BLAS, one per point of a stack, never one product
over the whole stack.

The kernels sit inside the innermost evaluation loop of benchmark runs:
the smoothed entrywise absolute sum and the masked residuals of a
factored low-rank matrix, each on a stack of points, one value per point.
"""

from __future__ import annotations

import numpy as np

# read by perfbench/run.py for its environment report
USING_NUMBA = False


def row_sums(A: np.ndarray) -> np.ndarray:
    """Sum of the entries of each ``A[i]``, added as ``A[i].sum()`` adds them."""
    return np.add.reduce(np.ascontiguousarray(A).reshape(len(A), -1), axis=1)


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``row_sums(A * B)``: the dot product of each ``A[i]`` with ``B[i]``.

    Either operand may be one row instead (1-D, or a leading axis of 1),
    which broadcasts against every row of the other.
    """
    return row_sums(A * B)


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
