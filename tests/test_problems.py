from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from manisearch import problems
from manisearch.errors import InvalidDimension, UnknownProblem
from manisearch.manifolds import FixedRank, Sphere, random_point
from manisearch.problems import (
    NONSMOOTH_PROBLEMS,
    PROBLEM_NAMES,
    SMOOTH_PROBLEMS,
    ProblemInstance,
    build_instance,
)
from manisearch.solvers import default_config, run_solver

from conftest import make_problem

DIMS = (2, 10, 50)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_registry_layout():
    assert len(PROBLEM_NAMES) == 10
    assert len(SMOOTH_PROBLEMS) == 8
    assert set(NONSMOOTH_PROBLEMS) == {"sparsest-vector", "nonsmooth-mc"}


def test_unknown_name_and_bad_dimension():
    with pytest.raises(UnknownProblem):
        build_instance("xyz", 10, 0)
    with pytest.raises(InvalidDimension):
        build_instance("largest-eig", 1, 0)


def test_every_instance_feasible_and_reproducible():
    for name in PROBLEM_NAMES:
        for n_p in DIMS:
            a = build_instance(name, n_p, 3)
            b = build_instance(name, n_p, 3)
            assert a.start.residual() <= 1e-8
            assert np.isfinite(a.f0)
            assert a.f0 == b.f0
            assert a.ambient_dim == a.manifold.ambient_dim
            assert a.smooth == (name in SMOOTH_PROBLEMS)
            # payload and start identical across rebuilds
            assert np.array_equal(a.start.ambient(), b.start.ambient())


def test_manifold_kinds_match_problem():
    assert build_instance("largest-eig", 10, 0).manifold.kind == "sphere"
    assert build_instance("largest-sv", 10, 0).manifold.kind == "product-spheres"
    assert build_instance("matrix-completion", 10, 0).manifold.kind == "fixed-rank"
    assert build_instance("procrustes", 10, 0).manifold.kind == "stiefel"
    gmm = build_instance("gmm", 10, 0).manifold
    assert [b.kind for b in gmm.blocks] == ["spd", "spd", "simplex"]


def test_seeds_change_payload():
    a = build_instance("largest-eig", 10, 0)
    b = build_instance("largest-eig", 10, 1)
    assert not np.array_equal(a.data["a"], b.data["a"])


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------

def test_instances_are_immutable():
    inst = build_instance("largest-eig", 5, 0)
    with pytest.raises(FrozenInstanceError):
        inst.seed = 1
    with pytest.raises(FrozenInstanceError):
        inst.f0 = 0.0


@pytest.mark.parametrize("name", ["zo-rgd"])
def test_a_run_evaluates_the_objective_exactly_its_budget(name, monkeypatch):
    # a run that evaluates one point at a time refuses an evaluation past its
    # budget before the objective runs (the direct-search solvers evaluate
    # trial chunks ahead: test_evaluating_ahead_spends_exactly_the_budget)
    calls = []
    evaluate = ProblemInstance.evaluate
    monkeypatch.setattr(ProblemInstance, "evaluate",
                        lambda self, value: calls.append(1) or evaluate(self, value))
    prob = make_problem(Sphere(3), lambda v: 1.0)
    trace = run_solver(name, prob, default_config(name, budget=7, seed=0))
    assert trace.stop_reason == "budget"
    assert len(calls) == trace.evals_used == 7


# evaluate at random_point(manifold, 5) on each problem at n_p = 10, seed 2
PINNED_VALUES = {
    "largest-eig": 1.2926540067166714,
    "largest-sv": -0.9202763634396043,
    "top-sv": 1.7002942185911285,
    "dict-learning": 2.629365384763249,
    "sync-rotations": 7.0394159286635345,
    "matrix-completion": 3.2393628012988147,
    "gmm": 81.37876644990014,
    "procrustes": 53.173007556645835,
    "sparsest-vector": 5.226347527054112,
    "nonsmooth-mc": 4.1758233507126485,
}


def test_evaluate_keeps_its_pinned_values():
    got = {}
    for name in PROBLEM_NAMES:
        inst = build_instance(name, 10, 2)
        got[name] = inst.evaluate(random_point(inst.manifold, 5).value)
    assert got == PINNED_VALUES


@pytest.mark.parametrize("n_p", DIMS)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_every_row_of_a_stack_is_its_stack_of_one(name, n_p):
    # the stacked objective on 16 points retracted from the start, one of
    # them NaN and, on gmm, two with a covariance that is not positive
    # definite (one singular, one of negative determinant): every value of
    # a stack of 1, 5 or 16 is bitwise the value of its row alone
    inst = build_instance(name, n_p, 1)
    m, x = inst.manifold, inst.start.value
    rng = np.random.default_rng([n_p, 8])
    T = m._project_many(x, rng.standard_normal((16, m.ambient_dim)))
    P = m._retract_many(x, 0.3 * T)
    P[3] = np.nan
    if name == "gmm":
        d = m.blocks[0].d
        sl0, sl1 = m._slices[:2]
        P[5, sl0] = 0.0
        P[6, sl1] = np.diag([-1.0] + [1.0] * (d - 1)).ravel()
    alone = [repr(inst.evaluate(p)) for p in P]
    if name == "gmm":  # a covariance with no finite log-determinant is +inf
        assert alone[3] == alone[5] == alone[6] == "inf"
    else:
        assert alone[3] == "nan"
    for k in (1, 5, 16):
        for lo in range(0, 16, k):
            got = inst.evaluate_many(P[lo:lo + k])
            assert got.shape == (len(P[lo:lo + k]),)
            assert list(map(repr, got.tolist())) == alone[lo:lo + k], (k, lo)


def test_reevaluation_bitwise_equal():
    for name in PROBLEM_NAMES:
        inst = build_instance(name, 10, 2)
        x = random_point(inst.manifold, 5)
        assert inst.evaluate(x.value) == inst.evaluate(x.value)


def test_largest_eig_matches_quadratic_form():
    inst = build_instance("largest-eig", 8, 1)
    a = inst.data["a"]
    x = random_point(inst.manifold, 9)
    assert inst.evaluate(x.value) == pytest.approx(-(x.value @ a @ x.value), rel=1e-14)
    # diagonal oracle: with A = diag(1, 2, 3) the value at e3 is -3
    e3 = np.array([0.0, 0.0, 1.0])
    assert float(-(e3 @ np.diag([1.0, 2.0, 3.0]) @ e3)) == -3.0


def test_matrix_completion_truth_point_scores_zero():
    inst = build_instance("matrix-completion", 10, 4)
    truth = FixedRank.pack(inst.data["u_bar"], inst.data["s_bar"], inst.data["v_bar"])
    assert inst.evaluate(truth) == pytest.approx(0.0, abs=1e-20)
    inst_ns = build_instance("nonsmooth-mc", 10, 4)
    truth = FixedRank.pack(inst_ns.data["u_bar"], inst_ns.data["s_bar"], inst_ns.data["v_bar"])
    assert inst_ns.evaluate(truth) == pytest.approx(0.0, abs=1e-12)


def test_sparsest_vector_matches_l1_formula():
    inst = build_instance("sparsest-vector", 6, 3)
    q = inst.data["q"]
    x = random_point(inst.manifold, 11)
    assert inst.evaluate(x.value) == pytest.approx(np.abs(q @ x.value).sum(), rel=1e-14)
    # hand value: with Q = I2 and x = (1, 1)/sqrt(2) the objective is sqrt(2)
    x2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(np.eye(2) @ x2).sum() == pytest.approx(np.sqrt(2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# known optima
# ---------------------------------------------------------------------------

def test_known_opt_lower_bounds_feasible_values():
    rng = np.random.default_rng(23)
    for name in ("largest-eig", "largest-sv", "top-sv", "sync-rotations",
                 "matrix-completion", "nonsmooth-mc"):
        inst = build_instance(name, 10, 5)
        assert inst.known_opt is not None
        lo = inst.known_opt
        worst_gap = 0.0
        for _ in range(1000):
            x = inst.manifold.random_point(rng)
            worst_gap = min(worst_gap, inst.evaluate(x.value) - lo)
        assert worst_gap >= -1e-9, (name, worst_gap)


def test_largest_eig_known_opt_is_eigenvalue():
    inst = build_instance("largest-eig", 12, 7)
    assert inst.known_opt == pytest.approx(
        -np.linalg.eigvalsh(inst.data["a"])[-1], rel=1e-14
    )


def test_identity_subspace_l1_floor():
    # with an identity measurement matrix the sphere's l1 minimum is 1,
    # attained at the signed coordinate vectors
    rng = np.random.default_rng(101)
    for _ in range(1000):
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        assert np.abs(x).sum() >= 1.0 - 1e-12
    assert np.abs(np.eye(6)[0]).sum() == 1.0


# ---------------------------------------------------------------------------
# sync-rotations noise rotation
# ---------------------------------------------------------------------------

def _sync_noise_generators():
    """The skew matrices the sync-rotations builder exponentiates, d = 2..8
    and seeds 0..49, captured from the builder's own draws."""
    seen = []

    def spy(a):
        seen.append(a.copy())
        return np.eye(len(a))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_expm", spy)
        for d in range(2, 9):
            for seed in range(50):
                build_instance("sync-rotations", 2 * d * d, seed)
                assert seen[-1].shape == (d, d)
    return seen


def test_noise_rotation_matches_scipy_expm():
    import scipy.linalg  # a test-only dependency (the dev extra)

    gens = _sync_noise_generators()
    assert len(gens) == 7 * 50
    for a in gens:
        assert np.array_equal(a, -a.T)
        q = problems._expm(a)
        assert np.max(np.abs(q - scipy.linalg.expm(a))) <= 1e-15
        assert np.linalg.norm(q.T @ q - np.eye(len(a))) <= 1e-14
        assert np.linalg.det(q) > 0


def test_exponential_of_zero_is_identity():
    for d in range(2, 9):
        assert np.array_equal(problems._expm(np.zeros((d, d))), np.eye(d))


# ---------------------------------------------------------------------------
# shape schedule
# ---------------------------------------------------------------------------

def test_shape_schedule_spot_values():
    assert build_instance("largest-eig", 50, 0).ambient_dim == 50
    assert build_instance("largest-sv", 50, 0).ambient_dim == 50
    assert build_instance("sync-rotations", 50, 0).ambient_dim == 50
    assert build_instance("matrix-completion", 50, 0).ambient_dim == 49
    assert build_instance("gmm", 10, 0).ambient_dim == 10
    assert build_instance("gmm", 50, 0).ambient_dim == 52
    assert build_instance("procrustes", 50, 0).ambient_dim == 50
    assert build_instance("dict-learning", 50, 0).ambient_dim == 75
    assert build_instance("sparsest-vector", 50, 0).ambient_dim == 50


def test_gmm_objective_finite_and_positive_weights():
    inst = build_instance("gmm", 10, 1)
    s1, s2, w = inst.manifold._unpack(inst.start.value)
    assert np.all(np.linalg.eigvalsh(s1) > 0)
    assert np.all(np.linalg.eigvalsh(s2) > 0)
    assert np.min(w) > 0
    assert np.isfinite(inst.f0)
