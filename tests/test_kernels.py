import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import manisearch
from manisearch import kernels

# the tests of the row-bitwise contract: geometry, objectives and dense
# directions, each row of a stack bitwise its stack of one; and a run's
# accepts replayed one point at a time, on a hand-built objective that
# rounds its BLAS products by where they sit in memory
CONTRACT_TESTS = [
    "tests/test_manifolds.py::test_stacked_geometry_matches_per_row_bitwise",
    "tests/test_problems.py::test_every_row_of_a_stack_is_its_stack_of_one",
    "tests/test_directions.py::test_dense_directions_rows_equal_their_stacks_of_one_bitwise",
    "tests/test_acceptance.py::test_criterion_1_geometry_suite",
    "tests/test_acceptance.py::test_criterion_2_spanning_suite",
    "tests/test_solvers.py::test_accepted_steps_replay_sufficient_decrease",
]


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
    # row i of a stack, C-contiguous or not and starting at any offset, sums
    # as the 1-D row does, and dots as the 1-D row's product sums; one row
    # broadcasts against every row of the other operand
    rng = np.random.default_rng(n)
    A = rng.standard_normal((16, n))
    B = rng.standard_normal((16, n))
    sums = [float(a.sum()) for a in A]
    dots = [float((a * b).sum()) for a, b in zip(A, B)]
    for stack in (A, np.asfortranarray(A), np.hstack([A, B])[:, :n]):
        for i in (0, 1, 3):
            assert kernels.row_sums(stack[i:]).tolist() == sums[i:]
            assert kernels.row_dots(stack[i:], B[i:]).tolist() == dots[i:]
        assert kernels.row_dots(stack, B[5]).tolist() == [
            float((a * B[5]).sum()) for a in A]
        assert kernels.row_dots(B[5:6], stack).tolist() == [
            float((B[5] * a).sum()) for a in A]


def _openblas_core(env) -> str:
    # the kernel OpenBLAS loads in a process with this environment, as its
    # start-up report names it ("Core: SkylakeX"), or "" where none is named
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, timeout=60, env={**env, "OPENBLAS_VERBOSE": "2"})
    found = re.search(r"^Core: (\S+)", probe.stderr, re.M)
    return found.group(1) if found else ""


def test_row_contract_holds_on_an_sse_blas_kernel():
    # OpenBLAS's SSE kernels round a BLAS dot product by where its operands
    # sit in memory, so a row reduction in BLAS would break the contract on
    # a CPU without AVX.  A child process runs the contract tests on the
    # kernel OPENBLAS_CORETYPE=Prescott selects, set in its environment only
    path = [str(Path(manisearch.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    sse = {**env, "OPENBLAS_CORETYPE": "Prescott"}
    default, core = _openblas_core(env), _openblas_core(sse)
    if core == default:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott changed no kernel (core {core or 'unnamed'})")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *CONTRACT_TESTS],
        cwd=Path(__file__).parents[1], env=sse, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, f"on core {core} (default {default}):\n{child.stdout[-4000:]}"


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
