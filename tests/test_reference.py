"""Plain reference loops for rds-sb, rdse-sb and rds-dd, and the test that
``run_solver`` matches them bitwise.

Each loop states a paper algorithm one search at a time on the lone API
alone: ``spanning_basis`` or ``dense_direction`` for a direction,
``Manifold.retract`` for a trial point and ``ProblemInstance.evaluate``
for its value.  ``run_solver`` computes trial points and values a chunk
ahead, in stacks; the loops say what it must still compute.  They pin no
bytes, so a change that moves output hashes but keeps these tests passing
changed rounding, not an algorithm.
"""

from math import inf, isfinite

import numpy as np
import pytest

from manisearch.directions import DenseDirectionStream, dense_direction, spanning_basis
from manisearch.problems import build_instance
from manisearch.solvers import STEP_FLOOR, default_config, run_solver


class _Spent(Exception):
    """The budget refused an evaluation."""


class _Evaluations:
    """A run's objective calls: at most ``budget``, and the best value after each."""

    def __init__(self, inst, budget):
        self.inst, self.budget = inst, budget
        self.best, self.history = inf, []

    def __call__(self, point) -> float:
        if len(self.history) == self.budget:
            raise _Spent
        f = self.inst.evaluate(point.value)
        if -inf < f < self.best:  # NaN and -inf never become the best value
            self.best = f
        self.history.append(self.best)
        return f


def reference_poll(inst, cfg, directions):
    """RDS: poll ``directions(x)`` in order with one stepsize alpha.

    The first trial with a finite value of at most f(x) - gamma alpha^2
    becomes the iterate and alpha grows by gamma2; a round with no such
    trial shrinks alpha by gamma1.  A zero step costs no evaluation.
    """
    m, f = inst.manifold, _Evaluations(inst, cfg.budget)
    x = inst.start
    fx = f(x)
    alpha = cfg.alpha0
    try:
        while alpha >= STEP_FLOOR:
            for d in directions(x):
                step = d.scaled(alpha)
                if step.is_zero():
                    continue
                trial = m.retract(x, step)
                f_trial = f(trial)
                if isfinite(f_trial) and f_trial <= fx - cfg.gamma * alpha * alpha:
                    x, fx = trial, f_trial
                    alpha *= cfg.gamma2
                    break
            else:
                alpha *= cfg.gamma1
    except _Spent:
        return f.history, x, "budget"
    return f.history, x, "step-floor"


def reference_rdse_sb(inst, cfg):
    """RDSE on the spanning basis: iteration k searches along slot k mod K.

    Each signed coordinate keeps a tentative stepsize a.  A trial at a that
    passes the poll's test is extrapolated by gamma2 while the value stays
    strictly below f(x) - gamma a^2; the last step that passed becomes the
    iterate and the slot's stepsize.  A failed trial shrinks a by gamma1.
    The run stops when every stepsize of the basis at x is below the floor.
    """
    m, f = inst.manifold, _Evaluations(inst, cfg.budget)
    x = inst.start
    fx = f(x)
    tentative = [cfg.alpha0] * (2 * m.ambient_dim)
    k = 0
    try:
        while True:
            basis = spanning_basis(x)
            if max(tentative[s] for s in basis.slots) < STEP_FLOOR:
                return f.history, x, "step-floor"
            j = k % len(basis)
            slot, d = basis.slots[j], basis.vectors[j]
            a = tentative[slot]
            trial = m.retract(x, d.scaled(a))
            f_trial = f(trial)
            if isfinite(f_trial) and f_trial <= fx - cfg.gamma * a * a:
                try:
                    while True:
                        cand = cfg.gamma2 * a
                        further = m.retract(x, d.scaled(cand))
                        f_further = f(further)
                        if not (isfinite(f_further)
                                and f_further < fx - cfg.gamma * cand * cand):
                            break
                        a, trial, f_trial = cand, further, f_further
                finally:  # the budget may end the extrapolation: keep its best
                    x, fx = trial, f_trial
                tentative[slot] = a
            else:
                tentative[slot] = cfg.gamma1 * a
            k += 1
    except _Spent:
        return f.history, x, "budget"


def _rds_sb(inst, cfg):
    return reference_poll(inst, cfg, lambda x: spanning_basis(x).vectors)


def _rds_dd(inst, cfg):
    stream = DenseDirectionStream(cfg.seed, inst.manifold.ambient_dim)
    return reference_poll(inst, cfg, lambda x: [dense_direction(stream, x)])


REFERENCES = {"rds-sb": _rds_sb, "rdse-sb": reference_rdse_sb, "rds-dd": _rds_dd}

# (problem, n_p, budget): every manifold kind a built problem has, small
CASES = [
    ("largest-eig", 3, 2000),  # small enough to stop at the step floor
    ("largest-sv", 6, 300),
    ("top-sv", 12, 300),
    ("dict-learning", 8, 300),
    ("sync-rotations", 8, 300),
    ("matrix-completion", 9, 300),
    ("gmm", 10, 300),
    ("procrustes", 10, 300),
    ("sparsest-vector", 10, 400),
    ("nonsmooth-mc", 9, 400),
]


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("name", list(REFERENCES))
@pytest.mark.parametrize("problem, n_p, budget", CASES)
def test_solver_matches_its_reference_loop_bitwise(problem, n_p, budget, name, seed):
    inst = build_instance(problem, n_p, seed)
    cfg = default_config(name, budget=budget, seed=seed)
    history, x, stop_reason = REFERENCES[name](inst, cfg)
    trace = run_solver(name, inst, cfg)
    assert trace.history.tolist() == history
    assert np.array_equal(trace.final_point.value, x.value, equal_nan=True)
    assert trace.stop_reason == stop_reason
