"""Plain reference loops for all seven solvers, and the test that
``run_solver`` matches them bitwise.

Each loop states a paper algorithm one search at a time on the lone API
alone: ``spanning_basis`` or ``dense_direction`` for a direction (or
``random_tangent`` for zo-rgd's probe), ``Manifold.retract`` for a trial
point and ``ProblemInstance.evaluate`` for its value.  ``run_solver``
computes trial points and values a chunk ahead, in stacks; the loops
evaluate only the points their searches reach, and say what it must
still compute.  They pin no bytes, so a change that moves output hashes
but keeps these tests passing changed rounding, not an algorithm.
"""

from math import inf, isfinite

import numpy as np
import pytest

from manisearch.directions import DenseDirectionStream, dense_direction, spanning_basis
from manisearch.manifolds import random_tangent
from manisearch.problems import NONSMOOTH_PROBLEMS, build_instance
from manisearch.solvers import (
    STEP_FLOOR,
    default_config,
    default_nonsmooth_phase,
    run_solver,
)


class _Spent(Exception):
    """The budget refused an evaluation."""


class _Run:
    """A run's iterate and objective calls: at most ``budget`` calls, the
    best value after each, and the evaluation count at a *-plus switch."""

    def __init__(self, inst, budget):
        self.inst, self.budget = inst, budget
        self.best, self.history = inf, []
        self.switch_eval = None
        self.x = inst.start
        self.fx = self(self.x)  # budget >= 1: never refused

    def __call__(self, point) -> float:
        if len(self.history) == self.budget:
            raise _Spent
        f = self.inst.evaluate(point.value)
        if -inf < f < self.best:  # NaN and -inf never become the best value
            self.best = f
        self.history.append(self.best)
        return f


def reference_poll(run, cfg, directions, switch_at=None) -> bool:
    """RDS: poll ``directions(x)`` in order with one stepsize alpha.

    The first trial with a finite value of at most f(x) - gamma alpha^2
    becomes the iterate and alpha grows by gamma2; a round with no such
    trial shrinks alpha by gamma1.  A zero step costs no evaluation.  The
    poll stops when alpha is below the floor, or returns True after the
    round that brings alpha to ``switch_at`` or below.
    """
    m = run.inst.manifold
    alpha = cfg.alpha0
    while alpha >= STEP_FLOOR:
        for d in directions(run.x):
            step = d.scaled(alpha)
            if step.is_zero():
                continue
            trial = m.retract(run.x, step)
            f_trial = run(trial)
            if isfinite(f_trial) and f_trial <= run.fx - cfg.gamma * alpha * alpha:
                run.x, run.fx = trial, f_trial
                alpha *= cfg.gamma2
                break
        else:
            alpha *= cfg.gamma1
        if switch_at is not None and alpha <= switch_at:
            return True
    return False


def reference_extrapolate(run, d, a, cfg) -> float:
    """One linesearch along ``d`` from tentative stepsize ``a``; returns the next.

    A trial at a that passes the poll's test is extrapolated by gamma2
    while the value stays strictly below f(x) - gamma a^2; the last step
    that passed becomes the iterate and the next tentative stepsize.  A
    failed trial, or a zero step, returns gamma1 a.
    """
    m, x, fx = run.inst.manifold, run.x, run.fx
    step = d.scaled(a)
    if step.is_zero():
        return cfg.gamma1 * a
    trial = m.retract(x, step)
    f_trial = run(trial)
    if not (isfinite(f_trial) and f_trial <= fx - cfg.gamma * a * a):
        return cfg.gamma1 * a
    try:
        while True:
            cand = cfg.gamma2 * a
            further = m.retract(x, d.scaled(cand))
            f_further = run(further)
            if not (isfinite(f_further) and f_further < fx - cfg.gamma * cand * cand):
                return a
            a, trial, f_trial = cand, further, f_further
    finally:  # the budget may end the extrapolation: keep its best
        run.x, run.fx = trial, f_trial


def reference_rdse_sb(run, cfg, switch_at=None) -> bool:
    """RDSE on the spanning basis: iteration k searches along slot k mod K.

    Each signed coordinate keeps a tentative stepsize.  The run stops when
    every stepsize of the basis at x is below the floor, or returns True
    after the iteration that brings every one of them to ``switch_at`` or
    below.
    """
    tentative = [cfg.alpha0] * (2 * run.inst.manifold.ambient_dim)
    k = 0
    while True:
        basis = spanning_basis(run.x)
        if max(tentative[s] for s in basis.slots) < STEP_FLOOR:
            return False
        j = k % len(basis)
        slot = basis.slots[j]
        tentative[slot] = reference_extrapolate(run, basis.vectors[j], tentative[slot], cfg)
        k += 1
        if switch_at is not None and max(tentative[s] for s in basis.slots) <= switch_at:
            return True


def reference_rdse_dd(run, cfg):
    """RDSE on the dense stream: one linesearch per fresh stream direction,
    with one tentative stepsize, until it is below the floor."""
    stream = DenseDirectionStream(cfg.seed, run.inst.manifold.ambient_dim)
    a = cfg.alpha0
    while a >= STEP_FLOOR:
        a = reference_extrapolate(run, dense_direction(stream, run.x), a, cfg)


def reference_zo_rgd(run, cfg):
    """Two-point gradient-estimate descent: probe R(x, mu u) along a random
    unit tangent u, then move to R(x, -eta g u) with g = (f(probe) - f(x)) / mu
    and eta = 1.64 / n, whatever its value, unless g or that value is not
    finite.  It runs until the budget refuses an evaluation."""
    m = run.inst.manifold
    eta = 1.64 / m.ambient_dim
    rng = np.random.default_rng([cfg.seed, 90])
    while True:
        u = random_tangent(run.x, rng, unit=True)
        coef = (run(m.retract(run.x, u.scaled(cfg.mu))) - run.fx) / cfg.mu
        if isfinite(coef):
            x_new = m.retract(run.x, u.scaled(-eta * coef))
            f_new = run(x_new)
            if isfinite(f_new):
                run.x, run.fx = x_new, f_new


def _rds_sb(run, cfg, switch_at=None):
    return reference_poll(run, cfg, lambda x: spanning_basis(x).vectors, switch_at)


def _rds_dd(run, cfg):
    stream = DenseDirectionStream(cfg.seed, run.inst.manifold.ambient_dim)
    return reference_poll(run, cfg, lambda x: [dense_direction(stream, x)])


def _switching(basis_phase, dense_phase):
    # a *-plus strategy: the basis phase until its stepsize falls to
    # alpha_eps, then the dense phase from the current point, with the
    # nonsmooth parameters
    def loop(run, cfg):
        if basis_phase(run, cfg, cfg.alpha_eps):
            run.switch_eval = len(run.history)
            dense_phase(run, default_nonsmooth_phase(cfg))
    return loop


REFERENCES = {
    "rds-sb": _rds_sb,
    "rdse-sb": reference_rdse_sb,
    "rds-dd": _rds_dd,
    "rdse-dd": reference_rdse_dd,
    "rds-dd-plus": _switching(_rds_sb, _rds_dd),
    "rdse-dd-plus": _switching(reference_rdse_sb, reference_rdse_dd),
    "zo-rgd": reference_zo_rgd,
}


def reference_run(name, inst, cfg):
    """The reference loop of solver ``name``, and why it stopped."""
    run = _Run(inst, cfg.budget)
    try:
        REFERENCES[name](run, cfg)
    except _Spent:
        return run, "budget"
    return run, "step-floor"


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
# zo-rgd takes smooth problems only
RUNS = [(*case, name) for case in CASES for name in REFERENCES
        if name != "zo-rgd" or case[0] not in NONSMOOTH_PROBLEMS]


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("problem, n_p, budget, name", RUNS)
def test_solver_matches_its_reference_loop_bitwise(problem, n_p, budget, name, seed):
    inst = build_instance(problem, n_p, seed)
    plus = name.endswith("plus")
    # a large alpha_eps and twice the budget make every *-plus run switch
    extra = {"alpha_eps": 0.2, "budget": 2 * budget} if plus else {"budget": budget}
    cfg = default_config(name, seed=seed, **extra)
    run, stop_reason = reference_run(name, inst, cfg)
    trace = run_solver(name, inst, cfg)
    assert trace.history.tolist() == run.history
    assert np.array_equal(trace.final_point.value, run.x.value, equal_nan=True)
    assert trace.stop_reason == stop_reason
    assert trace.switch_eval == run.switch_eval
    if plus:
        assert run.switch_eval is not None
