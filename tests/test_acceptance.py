"""Acceptance suite: one test per release criterion, each printing a verdict.

The heavyweight shared piece is the smooth-grid fixture (the cells of
``manisearch run`` for 8 smooth problems x 3 dimensions x 3 seeds x 3 solvers),
reused by the qualitative-comparison and linesearch-replay criteria.
"""

import time

import numpy as np
import pytest

from manisearch.bench import assemble_results, data_profile
from manisearch.checks import direction_checks, geometry_checks, solver_checks
from manisearch.cli import grid_cells, run_cell, stable_seed
from manisearch.manifolds import Sphere
from manisearch.problems import SMOOTH_PROBLEMS, build_instance
from manisearch.solvers import DEFAULT_PARAMS, default_config, run_solver

from conftest import make_problem
from test_bench import (
    _brute_force_data_curves,
    _brute_force_performance_curves,
    _random_table,
)

GRID_DIMS = (2, 10, 50)
GRID_SEEDS = (0, 1, 2)


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS {detail}")


# ---------------------------------------------------------------------------
# criteria 1-3: module invariant suites
# ---------------------------------------------------------------------------

def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    results = geometry_checks(seed=0, cases=100)
    elapsed = time.perf_counter() - t0
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    assert elapsed < 30.0, f"geometry suite took {elapsed:.1f}s"
    _report(1, f"{len(results)} geometry checks in {elapsed:.1f}s")


def test_criterion_2_spanning_suite():
    results = direction_checks(seed=0, points=50, trials=200)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    taus = [r for r in results if "cosine-measure" in r.name]
    assert taus and all(r.passed for r in taus)
    _report(2, f"{len(results)} direction checks, tau > 0 on every kind")


def test_criterion_3_solver_contracts():
    results = solver_checks(seed=0)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    # determinism and budget for every solver on a small real instance
    inst = build_instance("largest-eig", 5, 1)
    for name in ("rds-sb", "rdse-sb", "rds-dd", "rdse-dd",
                 "rds-dd-plus", "rdse-dd-plus", "zo-rgd"):
        cfg = default_config(name, budget=300, seed=9)
        t1 = run_solver(name, inst, cfg)
        t2 = run_solver(name, inst, cfg)
        assert t1.history.tobytes() == t2.history.tobytes(), name
        assert t1.evals_used <= cfg.budget, name
        assert np.all(t1.history[1:] <= t1.history[:-1]), name
    _report(3, "decay exact, traces monotone, budgets capped, runs reproducible")


# ---------------------------------------------------------------------------
# criterion 4: smooth oracle convergence
# ---------------------------------------------------------------------------

def test_criterion_4_eigenvalue_oracle():
    n, budget = 5, 5000
    a = np.diag(np.arange(1.0, n + 1.0))
    target = -np.linalg.eigvalsh(a)[-1]  # independent oracle: eigendecomposition
    assert target == -5.0
    t0 = time.perf_counter()
    hits = {"rds-sb": 0, "rdse-sb": 0, "zo-rgd": 0}
    tols = {"rds-sb": 1e-3, "rdse-sb": 1e-3, "zo-rgd": 1e-1}
    for seed in range(10):
        prob = make_problem(Sphere(n), lambda v: float(-(v @ a @ v)), seed=seed,
                            name="diag-eig", known_opt=float(target))
        for solver in hits:
            cfg = default_config(solver, budget=budget, seed=seed)
            trace = run_solver(solver, prob, cfg)
            if trace.best_f <= target + tols[solver]:
                hits[solver] += 1
    elapsed = time.perf_counter() - t0
    for solver, count in hits.items():
        assert count >= 9, f"{solver}: {count}/10 seeds within {tols[solver]}"
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"hits {hits} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: nonsmooth oracle
# ---------------------------------------------------------------------------

def test_criterion_5_sparsest_vector_oracle():
    n, budget, samples = 10, 4000, 10**5
    hits = 0
    for seed in range(10):
        inst = build_instance("sparsest-vector", n, seed)
        q = inst.data["q"]
        rng = np.random.default_rng([seed, 999])
        x = rng.standard_normal((samples, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        brute = float(np.abs(x @ q.T).sum(axis=1).min())
        cfg = default_config("rdse-dd-plus", budget=budget,
                             seed=stable_seed("c5", seed))
        trace = run_solver("rdse-dd-plus", inst, cfg)
        if trace.best_f <= brute + 1e-2:
            hits += 1
    assert hits >= 8, f"{hits}/10 seeds matched the sampled minimum"
    _report(5, f"{hits}/10 seeds within 1e-2 of the {samples}-sample minimum")


# ---------------------------------------------------------------------------
# criteria 6 and 9: smooth-grid reproduction and linesearch replay
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smooth_grid():
    cells = grid_cells(SMOOTH_PROBLEMS, GRID_DIMS, GRID_SEEDS,
                       ("rds-sb", "rdse-sb", "zo-rgd"), 100, {})
    records = []
    accepted = []  # rdse-sb linesearch accepts: (inst, x, d, alpha, f0, f1)
    t0 = time.perf_counter()
    for cell in cells:
        def hook(x, d, alpha, fb, fa, cell=cell):
            if alpha > 0 and cell.solver == "rdse-sb":
                accepted.append((cell.inst, x, d, alpha, fb, fa))
        records.append(run_cell(cell, on_accept=hook))
    elapsed = time.perf_counter() - t0
    return dict(cells=cells, records=records, accepted=accepted, elapsed=elapsed)


def test_criterion_6_smooth_grid_ordering(smooth_grid):
    records = smooth_grid["records"]
    assert all(len(r["history"]) <= cell.cfg.budget
               for cell, r in zip(smooth_grid["cells"], records))
    table = assemble_results(records, taus=[0.1])
    curves = {c.solver: c for c in data_profile(table, 0.1, kappa_max=100)}
    at_budget = {s: curves[s].value_at(100.0) for s in curves}
    assert at_budget["rdse-sb"] >= at_budget["rds-sb"]
    assert at_budget["rdse-sb"] >= at_budget["zo-rgd"]
    assert smooth_grid["elapsed"] < 600.0, f"grid took {smooth_grid['elapsed']:.0f}s"
    _report(6, "data profile at kappa=100, tau=0.1: "
               + ", ".join(f"{s}={v:.3f}" for s, v in sorted(at_budget.items()))
               + f" ({smooth_grid['elapsed']:.0f}s)")


def test_criterion_9_linesearch_replay(smooth_grid):
    accepted = smooth_grid["accepted"]
    assert accepted, "no accepted linesearch steps recorded"
    gamma = DEFAULT_PARAMS["rdse-sb"]["gamma"]
    violations = 0
    for inst, x, d, alpha, f_before, f_after in accepted:
        y = inst.manifold.retract(x, d.scaled(alpha))
        replayed = inst.evaluate(y.value)
        if not (replayed == f_after
                and replayed <= f_before - gamma * alpha * alpha):
            violations += 1
    assert violations == 0
    _report(9, f"{len(accepted)} accepted steps replayed, 0 violations")


# ---------------------------------------------------------------------------
# criterion 7: nonsmooth switching comparison
# ---------------------------------------------------------------------------

def test_criterion_7_nonsmooth_grid_ordering():
    solvers = ("rds-dd-plus", "rdse-dd-plus")
    cells = grid_cells(("sparsest-vector", "nonsmooth-mc"), GRID_DIMS, GRID_SEEDS,
                       solvers, 100, {})
    records = [run_cell(cell) for cell in cells]
    table = assemble_results(records, taus=[0.1])
    solved = {
        s: sum(1 for r in table.rows if r.solver == s and r.t_ps is not None)
        for s in solvers
    }
    assert solved["rdse-dd-plus"] >= solved["rds-dd-plus"], solved
    _report(7, f"instances solved at tau=0.1: {solved}")


# ---------------------------------------------------------------------------
# criterion 8: profile correctness against brute force
# ---------------------------------------------------------------------------

def test_criterion_8_profiles_match_brute_force():
    from manisearch.bench import performance_profile

    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(50):
        table = _random_table(rng, n_solvers=3, n_problems=6)
        expected = _brute_force_performance_curves(table, 0.1)
        for curve in performance_profile(table, 0.1):
            assert curve.points == expected[curve.solver]
            checked += len(curve.points)
        expected = _brute_force_data_curves(table, 0.1, kappa_max=100)
        for curve in data_profile(table, 0.1, kappa_max=100):
            assert curve.points == expected[curve.solver]
            checked += len(curve.points)
    _report(8, f"50 random tables, {checked} breakpoints, all exact")
