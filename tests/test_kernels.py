import numpy as np
import pytest

from manisearch import kernels


def _factored_stack(rng, k, m=12, h=9, r=3, n_obs=40):
    U = rng.standard_normal((k, m, r))
    S = rng.uniform(0.5, 2.0, (k, r))
    V = rng.standard_normal((k, h, r))
    rows = rng.integers(0, m, n_obs).astype(np.int64)
    cols = rng.integers(0, h, n_obs).astype(np.int64)
    vals = rng.standard_normal(n_obs)
    return U, S, V, rows, cols, vals


def test_numpy_lane_matches_reference_formulas():
    rng = np.random.default_rng(1)
    C = rng.standard_normal((3, 7, 5))
    got = kernels.smooth_l1_sum(C, 0.01)
    for c, g in zip(C, got):
        assert g == pytest.approx(np.sqrt(c * c + 1e-4).sum(), rel=1e-14)
    U, S, V, rows, cols, vals = _factored_stack(rng, 3)
    sq = kernels.masked_residual_sq(U, S, V, rows, cols, vals)
    ab = kernels.masked_residual_abs(U, S, V, rows, cols, vals)
    for i in range(3):
        diff = ((U[i] * S[i]) @ V[i].T)[rows, cols] - vals
        assert sq[i] == pytest.approx(float(diff @ diff), rel=1e-12)
        assert ab[i] == pytest.approx(float(np.abs(diff).sum()), rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 8, 9, 130, 300])
def test_row_reductions_round_as_one_row_alone(n):
    # row i of a stack, C-contiguous or not, sums and dots as the 1-D row does
    rng = np.random.default_rng(n)
    A = rng.standard_normal((16, n))
    B = rng.standard_normal((16, n))
    for stack in (A, np.asfortranarray(A), np.hstack([A, B])[:, :n]):
        assert kernels.row_sums(stack).tolist() == [float(a.sum()) for a in A]
        assert kernels.row_dots(stack, B).tolist() == [float(a @ b) for a, b in zip(A, B)]


def test_every_row_is_bitwise_its_stack_of_one():
    # a stack gathered column-major by fancy indexing still adds each row in
    # the order its stack of one does
    rng = np.random.default_rng(5)
    U, S, V, rows, cols, vals = _factored_stack(rng, 16, m=30, h=30, r=3, n_obs=400)
    C = np.asfortranarray(rng.standard_normal((16, 6, 9)))
    for fn in (lambda sl: kernels.masked_residual_sq(U[sl], S[sl], V[sl], rows, cols, vals),
               lambda sl: kernels.masked_residual_abs(U[sl], S[sl], V[sl], rows, cols, vals),
               lambda sl: kernels.smooth_l1_sum(C[sl], 0.001)):
        whole = fn(slice(None)).tolist()
        assert [fn(slice(i, i + 1))[0] for i in range(16)] == whole


def test_smooth_l1_values():
    values = kernels.smooth_l1_sum(
        np.array([np.zeros((2, 2)), [[3.0, 0.0], [0.0, 0.0]]]), 0.001)
    assert values[0] == pytest.approx(0.004, rel=1e-12)
    assert values[1] == pytest.approx(np.sqrt(9.0 + 1e-6) + 3 * 0.001, rel=1e-14)
    assert kernels.smooth_l1_sum(np.array([[-4.0]]), 0.003)[0] == pytest.approx(
        np.sqrt(16.0 + 9e-6), rel=1e-14
    )


def test_smooth_l1_dominates_l1():
    rng = np.random.default_rng(0)
    C = rng.standard_normal((5, 4, 6))
    assert np.all(kernels.smooth_l1_sum(C, 0.01) >= np.abs(C).sum(axis=(1, 2)))
