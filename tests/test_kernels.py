import numpy as np
import pytest

from manisearch import kernels


def test_numpy_lane_matches_reference_formulas():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((7, 5))
    assert kernels.smooth_l1_sum(c, 0.01) == pytest.approx(
        np.sqrt(c * c + 1e-4).sum(), rel=1e-14
    )
    u = rng.standard_normal((12, 3))
    s = rng.uniform(0.5, 2.0, 3)
    v = rng.standard_normal((9, 3))
    rows = rng.integers(0, 12, 40).astype(np.int64)
    cols = rng.integers(0, 9, 40).astype(np.int64)
    vals = rng.standard_normal(40)
    full = (u * s) @ v.T
    diff = full[rows, cols] - vals
    assert kernels.masked_residual_sq(u, s, v, rows, cols, vals) == pytest.approx(
        float(diff @ diff), rel=1e-12
    )
    assert kernels.masked_residual_abs(u, s, v, rows, cols, vals) == pytest.approx(
        float(np.abs(diff).sum()), rel=1e-12
    )


def test_smooth_l1_values():
    assert kernels.smooth_l1_sum(np.zeros((2, 2)), 0.001) == pytest.approx(0.004, rel=1e-12)
    assert kernels.smooth_l1_sum(np.array([[3.0]]), 1e-9) == pytest.approx(3.0, rel=1e-9)
    assert kernels.smooth_l1_sum(np.array([[-4.0]]), 0.003) == pytest.approx(
        np.sqrt(16.0 + 9e-6), rel=1e-14
    )


def test_smooth_l1_dominates_l1():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((4, 6))
    assert kernels.smooth_l1_sum(c, 0.01) >= np.abs(c).sum()
