import csv
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manisearch.bench import (
    CSV_HEADER,
    ProfileCurve,
    ResultRow,
    ResultTable,
    assemble_results,
    converged,
    data_profile,
    evals_to_converge,
    performance_profile,
    profile_curve_csv,
)
from manisearch.errors import EmptyInput, InvalidBaseline


def _row(problem="p1", n_p=4, seed=0, solver="s1", tau=0.1, t_ps=None,
         f0=1.0, f_best=0.0, evals_used=100):
    return ResultRow(problem, n_p, seed, solver, tau, t_ps, f0, f_best, evals_used)


# ---------------------------------------------------------------------------
# convergence test
# ---------------------------------------------------------------------------

def test_converged_examples():
    assert converged(0.0, 1.0, 0.0, 0.5)  # f_k == f_L passes any tau
    assert converged(0.05, 1.0, 0.0, 0.1)
    assert not converged(0.15, 1.0, 0.0, 0.1)
    assert not converged(1.0, 1.0, 0.0, 0.1)  # no progress


def test_converged_validation():
    with pytest.raises(InvalidBaseline):
        converged(0.0, 1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        converged(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        converged(0.0, 1.0, 0.0, 1.0)


@given(
    f0=st.floats(-100, 100),
    gap=st.floats(0.0, 50.0),
    tau=st.floats(0.001, 0.999),
    frac=st.floats(0.0, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_converged_threshold_algebra(f0, gap, tau, frac):
    f_l = f0 - gap
    f_k = f_l + frac * gap
    threshold = f_l + tau * (f0 - f_l)
    assume(abs(f_k - threshold) > 1e-9 * (1 + abs(threshold)))  # skip razor edges
    assert converged(f_k, f0, f_l, tau) == (f_k <= threshold)


def test_evals_to_converge_examples():
    assert evals_to_converge(np.array([1.0, 0.2]), 1.0, 0.0, 0.25) == 2
    assert evals_to_converge(np.array([1.0, 1.0]), 1.0, 0.0, 0.25) is None
    # a trace that reaches f_L converges for every tau, at the same index
    hist = np.r_[np.ones(16), 0.0]
    for tau in (0.9, 0.5, 0.01):
        assert evals_to_converge(hist, 1.0, 0.0, tau) <= 17
    with pytest.raises(EmptyInput):
        evals_to_converge(np.array([]), 1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="one best value per evaluation"):
        evals_to_converge([(1, 1.0), (2, 0.2)], 1.0, 0.0, 0.25)  # pairs, not a history


def _pair_loop_evals_to_converge(history, f0, f_l, tau):
    """The loop over (eval_index, best_f) pairs that histories once were."""
    pairs = list(enumerate(history.tolist(), 1))
    if not pairs:
        raise EmptyInput("empty trace")
    for idx, best in pairs:
        if converged(best, f0, f_l, tau):
            return int(idx)
    return None


def test_evals_to_converge_matches_pair_loop():
    inf = np.inf
    cases = [
        (np.array([1.0, 0.5, 0.25, 0.1]), 1.0, 0.0, 0.25),  # 0.25 lies on the threshold
        (np.array([inf, inf, 0.3, 0.2]), 1.0, 0.0, 0.25),  # NaN first evaluations
        (np.array([inf, 0.3]), np.nan, 0.3, 0.5),  # f0 itself was NaN
        (np.array([1.0, 0.9, 0.9]), 1.0, 0.0, 0.1),  # never converges
        (np.array([0.0]), 1.0, 0.0, 0.5),
        (np.array([1.0]), 1.0, 0.0, 0.5),
    ]
    rng = np.random.default_rng(16)
    for trial in range(300):
        raw = rng.uniform(-1.0, 1.0, int(rng.integers(1, 80)))
        if trial % 3 == 0:
            raw[:int(rng.integers(1, 4))] = inf
        hist = np.minimum.accumulate(raw)
        f_l = min(float(hist[-1]), 1.0) - float(rng.choice([0.0, 0.3]))
        cases.append((hist, 1.0, f_l, float(rng.choice([0.5, 0.1, 1e-3]))))
    results = set()
    for hist, f0, f_l, tau in cases:
        got = evals_to_converge(hist, f0, f_l, tau)
        assert got == _pair_loop_evals_to_converge(hist, f0, f_l, tau)
        assert got is None or type(got) is int
        results.add(got is None)
    assert results == {True, False}
    assert evals_to_converge(cases[0][0], 1.0, 0.0, 0.25) == 3
    assert evals_to_converge(cases[1][0], 1.0, 0.0, 0.25) == 4
    for bad in (np.array([]), []):
        with pytest.raises(EmptyInput):
            evals_to_converge(bad, 1.0, 0.0, 0.5)
    for tau in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError):
            evals_to_converge(np.array([0.5]), 1.0, 0.0, tau)
    with pytest.raises(InvalidBaseline):
        evals_to_converge(np.array([0.5]), 1.0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# profiles: worked example
# ---------------------------------------------------------------------------

def _two_solver_table():
    rows = []
    t = {("s1", "p1"): 10, ("s1", "p2"): 30, ("s2", "p1"): 20, ("s2", "p2"): 15}
    for (solver, problem), t_ps in t.items():
        rows.append(_row(problem=problem, solver=solver, t_ps=t_ps))
    return ResultTable(rows)


def test_performance_profile_worked_example():
    # hand evaluation: mins are 10 (p1) and 15 (p2); ratios s1: {1, 2},
    # s2: {2, 1}; both curves hit 0.5 at 1 and 1.0 at 2
    curves = {c.solver: c for c in performance_profile(_two_solver_table(), 0.1)}
    assert curves["s1"].value_at(1.0) == 0.5
    assert curves["s1"].value_at(2.0) == 1.0
    assert curves["s2"].value_at(1.0) == 0.5
    assert curves["s2"].value_at(2.0) == 1.0
    assert curves["s1"].value_at(1.5) == 0.5


def test_single_solver_profile_counts_solved_fraction():
    rows = [
        _row(problem="p1", solver="s1", t_ps=10),
        _row(problem="p2", solver="s1", t_ps=None),
    ]
    curves = performance_profile(ResultTable(rows), 0.1)
    assert len(curves) == 1
    assert curves[0].value_at(1.0) == 0.5
    assert curves[0].points[-1][1] == 0.5  # unsolved problem never counted


def test_data_profile_worked_example():
    # t = 10 with n_p = 4 solves at kappa = 2 exactly
    rows = [_row(problem="p1", n_p=4, solver="s1", t_ps=10)]
    curves = data_profile(ResultTable(rows), 0.1, kappa_max=100)
    c = curves[0]
    assert c.value_at(1.999) == 0.0
    assert c.value_at(2.0) == 1.0
    assert c.value_at(100.0) == 1.0


def test_data_profile_boundary_inclusive():
    rows = [
        _row(problem="p1", n_p=4, solver="s1", t_ps=5),
        _row(problem="p2", n_p=9, solver="s1", t_ps=10),
    ]
    curves = data_profile(ResultTable(rows), 0.1)
    assert curves[0].value_at(1.0) == 1.0  # both solved at t = n_p + 1


def test_unsolved_contributes_nowhere():
    rows = [
        _row(problem="p1", solver="s1", t_ps=10),
        _row(problem="p2", solver="s1", t_ps=None),
        _row(problem="p1", solver="s2", t_ps=None),
        _row(problem="p2", solver="s2", t_ps=20),
    ]
    curves = {c.solver: c for c in performance_profile(ResultTable(rows), 0.1)}
    for c in curves.values():
        assert c.points[-1][1] == 0.5


def test_profile_empty_input():
    with pytest.raises(EmptyInput):
        performance_profile(ResultTable([]), 0.1)
    with pytest.raises(EmptyInput):
        data_profile(ResultTable([_row(tau=0.5)]), 0.1)


@pytest.mark.parametrize("profile", [performance_profile, data_profile])
def test_profile_rejects_repeated_run(profile):
    rows = _two_solver_table().rows
    table = ResultTable(rows + [rows[2]])
    with pytest.raises(ValueError, match=r"problem=p1 n_p=4 seed=0 solver=s2 .*tau=0.1"):
        profile(table, 0.1)


# ---------------------------------------------------------------------------
# profiles: brute-force equivalence and properties
# ---------------------------------------------------------------------------

def _random_table(rng, n_solvers=3, n_problems=6, solve_prob=0.8):
    rows = []
    for p in range(n_problems):
        n_p = int(rng.integers(2, 30))
        for s in range(n_solvers):
            solved = rng.random() < solve_prob
            t_ps = int(rng.integers(1, 500)) if solved else None
            rows.append(_row(problem=f"p{p}", n_p=n_p, solver=f"s{s}", t_ps=t_ps))
    return ResultTable(rows)


def _table_maps(table, tau):
    rows = [r for r in table.rows if r.tau == tau]
    keys = sorted({r.key() for r in rows})
    solvers = sorted({r.solver for r in rows})
    t = {(r.key(), r.solver): r.t_ps for r in rows}
    dims = {r.key(): r.n_p for r in rows}
    return keys, solvers, t, dims


def _brute_force_performance_curves(table, tau):
    """Naive double loop in exact rational arithmetic."""
    keys, solvers, t, _ = _table_maps(table, tau)
    mins = {}
    for key in keys:
        solved = [t[(key, s)] for s in solvers if t.get((key, s)) is not None]
        if solved:
            mins[key] = min(solved)
    breakpoints = sorted(
        {Fraction(1)}
        | {Fraction(t[(key, s)], mins[key]) for key in mins for s in solvers
           if t.get((key, s)) is not None}
    )
    curves = {}
    for s in solvers:
        pts = []
        for a in breakpoints:
            count = sum(
                1 for key in mins
                if t.get((key, s)) is not None
                and Fraction(t[(key, s)], mins[key]) <= a
            )
            value = count / len(keys)
            fa = float(a)
            if pts and pts[-1][0] == fa:
                pts[-1] = (fa, max(pts[-1][1], value))
            else:
                pts.append((fa, value))
        curves[s] = tuple(pts)
    return curves


def _brute_force_data_curves(table, tau, kappa_max):
    keys, solvers, t, dims = _table_maps(table, tau)
    breakpoints = sorted(
        {Fraction(0), Fraction(kappa_max)}
        | {Fraction(t[(key, s)], dims[key] + 1) for key in keys for s in solvers
           if t.get((key, s)) is not None}
    )
    curves = {}
    for s in solvers:
        pts = []
        for a in breakpoints:
            count = sum(
                1 for key in keys
                if t.get((key, s)) is not None
                and Fraction(t[(key, s)], dims[key] + 1) <= a
            )
            value = count / len(keys)
            fa = float(a)
            if pts and pts[-1][0] == fa:
                pts[-1] = (fa, max(pts[-1][1], value))
            else:
                pts.append((fa, value))
        curves[s] = tuple(pts)
    return curves


def _assert_profiles_match_brute_force(table, kappa_max=100):
    expected = _brute_force_performance_curves(table, 0.1)
    for curve in performance_profile(table, 0.1):
        assert curve.points == expected[curve.solver]
    expected = _brute_force_data_curves(table, 0.1, kappa_max)
    for curve in data_profile(table, 0.1, kappa_max=kappa_max):
        assert curve.points == expected[curve.solver]


def test_profiles_match_brute_force_on_random_tables():
    rng = np.random.default_rng(29)
    for _ in range(20):
        _assert_profiles_match_brute_force(_random_table(rng))


def test_ratio_that_rounds_onto_one_counts_at_one():
    # (2**53 + 1) / 2**53 is not 1 but rounds to 1.0, so both solvers
    # have solved p1 at the plotted abscissa 1.0
    rows = [
        _row(problem="p1", solver="s1", t_ps=2**53),
        _row(problem="p1", solver="s2", t_ps=2**53 + 1),
        _row(problem="p2", solver="s1", t_ps=None),
        _row(problem="p2", solver="s2", t_ps=3),
    ]
    table = ResultTable(rows)
    _assert_profiles_match_brute_force(table)
    curves = {c.solver: c.points for c in performance_profile(table, 0.1)}
    assert curves == {"s1": ((1.0, 0.5),), "s2": ((1.0, 1.0),)}


def test_multiplier_that_rounds_onto_the_right_edge_counts_there():
    # t / (n_p + 1) = 100 + 2**-53 lies past kappa_max = 100 but rounds to it
    n_p = 2**53 - 1
    rows = [
        _row(problem="p1", n_p=n_p, solver="s1", t_ps=100 * 2**53 + 1),
        _row(problem="p2", n_p=4, solver="s1", t_ps=5),
    ]
    table = ResultTable(rows)
    _assert_profiles_match_brute_force(table)
    (curve,) = data_profile(table, 0.1, kappa_max=100)
    assert curve.points == ((0.0, 0.0), (1.0, 0.5), (100.0, 1.0))


def test_data_profile_with_n_p_beyond_float_precision():
    # n_p + 1 > 2**53 is not a float; the multiplier must still be exact
    n_p = 2**60
    rows = [
        _row(problem="p1", n_p=n_p, solver="s1", t_ps=3 * (n_p + 1)),
        _row(problem="p1", n_p=n_p, solver="s2", t_ps=3 * (n_p + 1) - 1),
        _row(problem="p2", n_p=n_p + 2, solver="s1", t_ps=n_p + 3),
        _row(problem="p2", n_p=n_p + 2, solver="s2", t_ps=None),
    ]
    table = ResultTable(rows)
    _assert_profiles_match_brute_force(table)
    curves = {c.solver: c.points for c in data_profile(table, 0.1, kappa_max=100)}
    assert curves["s1"] == ((0.0, 0.0), (1.0, 0.5), (3.0, 1.0), (100.0, 1.0))
    assert curves["s2"] == ((0.0, 0.0), (1.0, 0.0), (3.0, 0.5), (100.0, 0.5))


def _huge_table(rng, n_solvers=3, n_problems=5):
    """Counts and dims around 2**53 and far past it, many of them within a
    few units of each other or of a multiple of n_p + 1, so exact ratios
    often collide after rounding."""
    rows = []
    for p in range(n_problems):
        n_p = rng.choice([rng.randint(2, 30), 2**53 - 1 + rng.randint(-3, 3),
                          rng.randint(2**53, 2**70)])
        base = rng.choice([1, rng.randint(1, 2**60), rng.randint(2**53 - 8, 2**53 + 8)])
        for s in range(n_solvers):
            if rng.random() < 0.15:
                t_ps = None
            elif rng.random() < 0.5:
                t_ps = max(1, rng.choice([1, 2, 3, 100]) * (n_p + 1) + rng.randint(-2, 2))
            else:
                t_ps = max(1, base * rng.randint(1, 3) + rng.randint(-2, 2))
            rows.append(_row(problem=f"p{p}", n_p=n_p, solver=f"s{s}", t_ps=t_ps))
    return ResultTable(rows)


def test_profiles_match_brute_force_on_huge_counts():
    rng = random.Random(53)
    for _ in range(150):
        _assert_profiles_match_brute_force(_huge_table(rng),
                                           kappa_max=rng.choice([1, 2, 3, 100]))


@pytest.mark.parametrize("kappa_max", [math.inf, -math.inf, math.nan, 0, -5, 10**400],
                         ids=["inf", "-inf", "nan", "0", "-5", "10**400"])
def test_data_profile_rejects_a_right_edge_not_finite_and_positive(kappa_max):
    with pytest.raises(ValueError, match="kappa_max must be finite and > 0"):
        data_profile(_two_solver_table(), 0.1, kappa_max=kappa_max)


def test_profile_curve_csv_quotes_like_csv_writer():
    points = ((0.0, 0.0), (1.0 / 3.0, 0.25), (2.5, 0.5), (1e300, 1.0))
    for solver in ("plain", "", "a,b", 'say "hi"', "two\nlines", 'x,"y"\r\nz'):
        curve = ProfileCurve(solver, "data", 0.1, points)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("solver", "kind", "tau", "abscissa", "value"))
        for a, v in points:
            w.writerow((solver, "data", repr(0.1), repr(a), repr(v)))
        assert profile_curve_csv(curve) == buf.getvalue()


def test_profiles_monotone_bounded_and_order_free():
    rng = np.random.default_rng(31)
    table = _random_table(rng, n_solvers=4, n_problems=8)
    shuffled = ResultTable(list(table.rows))
    rng.shuffle(shuffled.rows)
    for fn in (performance_profile, data_profile):
        curves = fn(table, 0.1)
        again = fn(shuffled, 0.1)
        assert [(c.solver, c.points) for c in curves] == [
            (c.solver, c.points) for c in again
        ]
        for c in curves:
            values = [v for _, v in c.points]
            xs = [a for a, _ in c.points]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert all(b > a for a, b in zip(xs, xs[1:]))


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_profile_right_edge_equals_solved_fraction(seed):
    table = _random_table(np.random.default_rng(seed))
    solved = {}
    keys = {r.key() for r in table.rows}
    for r in table.rows:
        if r.t_ps is not None:
            solved[r.solver] = solved.get(r.solver, 0) + 1
    for c in performance_profile(table, 0.1):
        assert c.points[-1][1] == pytest.approx(solved.get(c.solver, 0) / len(keys))
    for c in data_profile(table, 0.1):
        assert c.points[-1][1] == pytest.approx(solved.get(c.solver, 0) / len(keys))


# ---------------------------------------------------------------------------
# assembling and CSV round trip
# ---------------------------------------------------------------------------

def test_assemble_results_shares_baseline():
    records = [
        dict(problem="p", n_p=4, seed=0, solver="a",
             history=np.array([1.0, 0.5]), f0=1.0, evals_used=2),
        dict(problem="p", n_p=4, seed=0, solver="b",
             history=np.array([1.0, 1.0, 0.0]), f0=1.0, evals_used=3),
    ]
    table = assemble_results(records, taus=[0.1, 0.6])
    rows = {(r.solver, r.tau): r for r in table.rows}
    # f_L = 0 from solver b; at tau 0.6 solver a passes at eval 2
    assert rows[("a", 0.6)].t_ps == 2
    assert rows[("a", 0.1)].t_ps is None
    assert rows[("b", 0.1)].t_ps == 3
    assert rows[("b", 0.6)].t_ps == 3
    assert rows[("a", 0.1)].f_best == 0.5
    with pytest.raises(EmptyInput):
        assemble_results([], taus=[0.1])


def test_assembled_baseline_consistent():
    # the shared baseline never exceeds any solver's best value, and
    # trivially converges against itself
    rng = np.random.default_rng(41)
    records = []
    for p in range(4):
        for s in range(3):
            hist, best = [], 1.0
            for i in range(1, 20):
                best = min(best, float(rng.uniform(-1, 1)))
                hist.append(best)
            records.append(dict(problem=f"p{p}", n_p=5, seed=0, solver=f"s{s}",
                                history=np.array(hist), f0=1.0, evals_used=19))
    table = assemble_results(records, taus=[0.5])
    by_key = {}
    for r in table.rows:
        by_key.setdefault(r.key(), []).append(r.f_best)
    for key, bests in by_key.items():
        f_l = min(bests)
        assert all(f_l <= b for b in bests)
        assert converged(f_l, 1.0, f_l, 0.5)


def test_csv_round_trip_and_header():
    table = _two_solver_table()
    table.rows.append(_row(problem="p3", solver="s1", t_ps=None, f_best=0.123456789))
    text = table.to_csv()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = ResultTable.from_csv(text)
    assert back.rows == table.rows
    assert back.to_csv() == text
    with pytest.raises(EmptyInput):
        ResultTable.from_csv("bogus,header\n1,2\n")


def test_bucket_filter():
    rows = [
        _row(problem="a", n_p=4, t_ps=1),
        _row(problem="b", n_p=20, t_ps=1),
        _row(problem="c", n_p=100, t_ps=1),
    ]
    table = ResultTable(rows)
    assert [r.problem for r in table.filter(bucket="small").rows] == ["a"]
    assert [r.problem for r in table.filter(bucket="medium").rows] == ["b"]
    assert [r.problem for r in table.filter(bucket="large").rows] == ["c"]
    assert len(table.filter(bucket="all").rows) == 3


def test_profile_curve_step_semantics():
    c = ProfileCurve("s", "data", 0.1, ((0.0, 0.0), (2.0, 0.5), (5.0, 1.0)))
    assert c.value_at(-1.0) == 0.0
    assert c.value_at(0.0) == 0.0
    assert c.value_at(1.99) == 0.0
    assert c.value_at(2.0) == 0.5
    assert c.value_at(4.99) == 0.5
    assert c.value_at(7.0) == 1.0
