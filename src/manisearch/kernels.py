"""Hot objective-evaluation kernels.

The kernels here sit inside the innermost evaluation loop of benchmark
runs (one call per objective evaluation, up to ~10^6 calls per grid):
the smoothed entrywise absolute sum and the masked residuals of a
factored low-rank matrix.  They are vectorised numpy; BLAS-bound
operations (QR, SVD, matrix products) are called directly where needed
and are not routed through here.
"""

from __future__ import annotations

import numpy as np

# read by perfbench/run.py for its environment report
USING_NUMBA = False


def smooth_l1_sum(c: np.ndarray, eps: float) -> float:
    """Sum of sqrt(c_ij^2 + eps^2) over all entries of ``c``."""
    return float(np.sqrt(c * c + eps * eps).sum())


def masked_residual_sq(u, s, v, rows, cols, vals) -> float:
    """Squared residual sum over observed entries of the factored matrix.

    The matrix is ``(u * s) @ v.T``; only entries ``(rows[t], cols[t])``
    are reconstructed, so the full product is never materialised.
    """
    pred = ((u[rows] * s) * v[cols]).sum(axis=1)
    diff = pred - vals
    return float(diff @ diff)


def masked_residual_abs(u, s, v, rows, cols, vals) -> float:
    """Absolute residual sum over observed entries of the factored matrix."""
    pred = ((u[rows] * s) * v[cols]).sum(axis=1)
    return float(np.abs(pred - vals).sum())
