"""Tests for the benchmark's own code: tracer arithmetic, input generator, checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > leaf [2, 3];  root > b [7, 9]
    tr = tracing.Tracer(clock=_fake_clock([0, 1, 2, 3, 6, 7, 9, 10]))

    def leaf():
        return "leaf"

    def a():
        return tr.call("leaf", leaf, (), {})

    def b():
        return None

    def root():
        tr.call("a", a, (), {})
        tr.call("b", b, (), {}, new_run=True)
        return 1

    assert tr.call("root", root, (), {}, new_run=True) == 1
    assert tr.names == ["root", "a", "leaf", "b"]
    assert tr.parents == [-1, 0, 1, 0]
    assert tr.runs == [1, 1, 1, 2]
    assert tr.self_times() == [10 - 5 - 2, 5 - 1, 1, 2]
    summary = tr.summary()
    assert summary["root"] == (1, 3, 10)
    assert summary["a"] == (1, 4, 5)


def test_span_closes_when_the_call_raises():
    tr = tracing.Tracer(clock=_fake_clock([0, 4]))

    def boom():
        raise KeyError("x")

    try:
        tr.call("boom", boom, (), {})
    except KeyError:
        pass
    assert tr.ends == [4] and tr.self_times() == [4]
    assert tr._stack == []


def test_install_restores_every_original():
    from manisearch import bench, cli, solvers
    from manisearch.manifolds import Manifold
    from manisearch.problems import ProblemInstance

    owners = [(ProblemInstance, "evaluate"), (Manifold, "retract"),
              (solvers, "spanning_basis"), (cli, "run_solver"),
              (bench.ResultTable, "from_csv"), (Path, "write_text")]
    before = [vars(o)[a] for o, a in owners]
    restore = tracing.install(tracing.Tracer())
    assert all(vars(o)[a] is not b for (o, a), b in zip(owners, before))
    restore()
    assert all(vars(o)[a] is b for (o, a), b in zip(owners, before))


def test_generator_is_deterministic_and_well_formed():
    a, b = synth.generate(7, 40), synth.generate(7, 40)
    assert synth.to_csv(a) == synth.to_csv(b)
    assert synth.to_csv(a) != synth.to_csv(synth.generate(8, 40))
    assert len(a) == 40 * len(synth.SOLVERS) * len(synth.TAUS)
    for loose, tight in zip(a[0::2], a[1::2]):
        assert (loose.tau, tight.tau) == synth.TAUS
        budget = synth.BUDGET_MULT * (loose.n_p + 1)
        assert loose.evals_used == budget
        if loose.t_ps is not None:
            assert 1 <= loose.t_ps <= budget
        if tight.t_ps is not None:
            assert loose.t_ps is not None and loose.t_ps <= tight.t_ps <= budget


def _good_run():
    history = [(1, 3.0), (2, 2.0), (3, 2.0), (4, 1.5)]
    return dict(history=history, evals_used=4, budget=5, known_opt=1.0,
                residual=1e-12, feasibility_tol=1e-10)


def test_check_run_accepts_a_clean_run():
    assert checks.check_run(**_good_run()) == []


def test_check_run_rejects_non_monotone_trace():
    run = _good_run()
    run["history"] = [(1, 3.0), (2, 2.0), (3, 2.5), (4, 1.5)]
    assert any("increases" in p for p in checks.check_run(**run))


def test_check_run_rejects_over_budget_and_bad_indices():
    run = _good_run()
    run["budget"] = 3
    assert any("exceeds budget" in p for p in checks.check_run(**run))
    run = _good_run()
    run["history"] = [(1, 3.0), (3, 2.0), (4, 2.0), (5, 1.5)]
    assert any("indices" in p for p in checks.check_run(**run))


def test_check_run_rejects_value_below_optimum_and_infeasible_point():
    run = _good_run()
    run["known_opt"] = 1.6
    assert any("below known optimum" in p for p in checks.check_run(**run))
    run = _good_run()
    run["residual"] = 2e-9
    assert any("residual" in p for p in checks.check_run(**run))


def _curves(rows):
    from manisearch import bench
    table = bench.ResultTable.from_csv(synth.to_csv(rows))
    return {
        ("performance", tau): bench.performance_profile(table, tau)
        for tau in synth.TAUS
    } | {
        ("data", tau): bench.data_profile(table, tau, kappa_max=synth.BUDGET_MULT)
        for tau in synth.TAUS
    }


def test_check_curve_agrees_with_the_profiles_and_rejects_a_wrong_value():
    rows = synth.generate(3, 60)
    for (kind, tau), curves in _curves(rows).items():
        by_solver, n_problems = checks.achieved(rows, kind, tau)
        for curve in curves:
            rng = random.Random(0)
            points = list(curve.points)
            assert checks.check_curve(points, by_solver[curve.solver], n_problems,
                                      rng, samples=len(points)) == []
    points = list(curves[0].points)
    i = len(points) // 2
    a, v = points[i]
    points[i] = (a, v + 1.0 / n_problems)
    found = checks.check_curve(points, by_solver[curves[0].solver], n_problems,
                               random.Random(0), samples=len(points))
    assert any("recount" in p for p in found)


def test_check_curve_rejects_decreasing_or_out_of_range_values():
    solved_at = []
    assert any("decrease" in p for p in checks.check_curve(
        [(1.0, 0.5), (2.0, 0.25)], solved_at, 4, random.Random(0), samples=0))
    assert any("outside" in p for p in checks.check_curve(
        [(1.0, 1.5)], solved_at, 4, random.Random(0), samples=0))
