"""Correctness checks on the benchmark's outputs, run outside the timed section.

Grid workloads check every solver run; ``profile-table`` checks every
profile curve against a brute-force recount in exact rational
arithmetic.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from collections import defaultdict
from fractions import Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_trace(path) -> list:
    """``(eval_index, best_f)`` pairs of one trace CSV written by ``manisearch run``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(i), float(v)) for i, v in reader]


def check_run(history, evals_used, budget, known_opt, residual, feasibility_tol) -> list:
    """Problems with one solver run's trace, budget, optimum bound and final point."""
    problems = []
    if evals_used > budget:
        problems.append(f"evals_used {evals_used} exceeds budget {budget}")
    if [i for i, _ in history] != list(range(1, evals_used + 1)):
        problems.append(f"trace indices are not 1..{evals_used}")
    values = [v for _, v in history]
    if not all(math.isfinite(v) for v in values):
        problems.append("best_f is not finite")
    elif any(b > a for a, b in zip(values, values[1:])):
        problems.append("best_f increases")
    if known_opt is not None and values:
        floor = known_opt - 1e-8 * (1 + abs(known_opt))
        if not values[-1] >= floor:
            problems.append(f"best_f {values[-1]!r} below known optimum {known_opt!r}")
    if not residual <= 10 * feasibility_tol:
        problems.append(f"final point residual {residual:.3e} exceeds "
                        f"10 x {feasibility_tol:.1e}")
    return problems


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def achieved(rows, kind: str, tau: float):
    """Exact per-solver abscissae at which each problem counts as solved.

    Returns ``(by_solver, n_problems)``: performance ratios ``t / t_best``
    or data-profile multipliers ``t / (n_p + 1)``, as ``Fraction``s.
    """
    by_key = defaultdict(dict)
    dims = {}
    for r in rows:
        if r.tau == tau:
            key = (r.problem, r.n_p, r.seed)
            by_key[key][r.solver] = r.t_ps
            dims[key] = r.n_p
    by_solver = defaultdict(list)
    for key, ts in by_key.items():
        solved = [t for t in ts.values() if t is not None]
        if not solved:
            continue
        base = min(solved) if kind == "performance" else dims[key] + 1
        for solver, t in ts.items():
            if t is not None:
                by_solver[solver].append(Fraction(t, base))
    return by_solver, len(by_key)


def read_curve(path) -> list:
    """``(abscissa, value)`` pairs of one profile CSV written by ``manisearch profile``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(float(rec[3]), float(rec[4])) for rec in reader]


def check_curve(points, solved_at, n_problems, rng: random.Random, samples: int = 40) -> list:
    """Problems with one profile curve.

    The curve must be a step function with increasing abscissae and
    non-decreasing values in [0, 1].  At ``samples`` breakpoints drawn
    with ``rng`` its value must equal the share of problems whose exact
    abscissa rounds to at most that breakpoint (breakpoints that round
    to one float merge into the largest count).
    """
    problems = []
    if not points:
        return ["curve has no points"]
    xs = [a for a, _ in points]
    vs = [v for _, v in points]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        problems.append("abscissae not strictly increasing")
    if any(not 0.0 <= v <= 1.0 for v in vs):
        problems.append("value outside [0, 1]")
    if any(b < a for a, b in zip(vs, vs[1:])):
        problems.append("values decrease")
    rounded = sorted(float(r) for r in solved_at)
    for a, v in rng.sample(points, min(samples, len(points))):
        count = sum(1 for r in rounded if r <= a)
        if count / n_problems != v:
            problems.append(f"value {v!r} at {a!r}, recount gives "
                            f"{count}/{n_problems}")
    return problems
