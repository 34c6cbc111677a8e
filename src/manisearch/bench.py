"""Run aggregation: convergence test, result tables, data/performance profiles.

A run on problem p is declared solved at accuracy tau once its best
objective value passes ``f <= f_L + tau * (f0 - f_L)`` where f_L is the
best value achieved by any solver on that problem instance; ``t_ps`` is
the number of evaluations needed to get there.  Profiles summarise a
table of such results:

    performance profile  rho_s(a) = fraction of problems solved within
                         a times the best solver's evaluation count
    data profile         d_s(kappa) = fraction of problems solved within
                         kappa * (n_p + 1) evaluations

Problems unsolved by a solver never enter its counts but always count in
the denominator.  Profile abscissae are exact ratios of integers rounded
once to floats; the counts at them are exact (see ``_float_points``).
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyInput, InvalidBaseline

CSV_HEADER = ("problem", "n_p", "seed", "solver", "tau",
              "t_ps", "f0", "f_best", "evals_used")

SIZE_BUCKETS = {"small": (2, 15), "medium": (16, 50), "large": (51, 200)}


def _threshold(f0: float, f_l: float, tau: float) -> float:
    """The bound ``f_L + tau (f0 - f_L)`` after checking tau and the baseline."""
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    if f_l > f0:
        raise InvalidBaseline(f"f_L ({f_l}) exceeds f0 ({f0})")
    return f_l + tau * (f0 - f_l)


def converged(f_k: float, f0: float, f_l: float, tau: float) -> bool:
    """Relative-accuracy stopping test ``f_k <= f_L + tau (f0 - f_L)``."""
    return f_k <= _threshold(f0, f_l, tau)


def evals_to_converge(history, f0: float, f_l: float, tau: float) -> Optional[int]:
    """Smallest evaluation count whose best value passes the test, else None.

    ``history`` is a run's best-value history (``RunTrace.history``): a
    1-D float array whose entry i is the best value after evaluation
    i + 1, so the result is the index of the first passing entry plus one.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 1:
        raise ValueError("a history is one best value per evaluation")
    if not len(history):
        raise EmptyInput("empty trace")
    hits = np.flatnonzero(history <= _threshold(f0, f_l, tau))
    return int(hits[0]) + 1 if len(hits) else None


@dataclass(frozen=True)
class ResultRow:
    problem: str
    n_p: int
    seed: int
    solver: str
    tau: float
    t_ps: Optional[int]  # None when unsolved
    f0: float
    f_best: float
    evals_used: int

    def key(self):
        return (self.problem, self.n_p, self.seed)


@dataclass
class ResultTable:
    """Rows of per-(instance, solver, tau) outcomes."""

    rows: list

    def taus(self):
        return sorted({r.tau for r in self.rows})

    def filter(self, bucket: str) -> "ResultTable":
        """The rows whose n_p lies in ``SIZE_BUCKETS[bucket]``; all for "all"."""
        if bucket == "all":
            return ResultTable(list(self.rows))
        lo, hi = SIZE_BUCKETS[bucket]
        return ResultTable([r for r in self.rows if lo <= r.n_p <= hi])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in self.rows:
            w.writerow([
                r.problem, r.n_p, r.seed, r.solver, repr(r.tau),
                "" if r.t_ps is None else r.t_ps,
                repr(r.f0), repr(r.f_best), r.evals_used,
            ])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        rows = []
        try:
            header = next(reader, None)
            if header is None or tuple(header) != CSV_HEADER:
                raise EmptyInput(f"bad or missing header, expected {','.join(CSV_HEADER)}")
            for rec in reader:
                if not rec:
                    continue
                try:
                    if len(rec) != len(CSV_HEADER):
                        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(rec)}")
                    row = ResultRow(
                        problem=rec[0], n_p=int(rec[1]), seed=int(rec[2]), solver=rec[3],
                        tau=float(rec[4]), t_ps=None if rec[5] == "" else int(rec[5]),
                        f0=float(rec[6]), f_best=float(rec[7]), evals_used=int(rec[8]),
                    )
                    # every row ``manisearch run`` writes meets these, and the
                    # profiles divide by t_ps and n_p + 1
                    if not (row.n_p >= 1 and row.evals_used >= 1 and (
                            row.t_ps is None or 1 <= row.t_ps <= row.evals_used)):
                        raise ValueError(
                            "needs n_p >= 1, evals_used >= 1 and 1 <= t_ps <= evals_used")
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                rows.append(row)
        except csv.Error as exc:  # a malformed record, such as an oversized field
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        return cls(rows)


def assemble_results(records, taus) -> ResultTable:
    """Build a table from raw run records, sharing f_L across solvers.

    ``records`` is an iterable of dicts with keys problem, n_p, seed,
    solver, history, f0, where history is a run's best-value array
    (``RunTrace.history``): its last entry is the run's best value and its
    length the evaluations the run made.
    For each (problem, n_p, seed) the baseline f_L is the smallest best
    value any solver reached.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no run records")
    f_l = {}
    for rec in records:
        key = (rec["problem"], rec["n_p"], rec["seed"])
        best = float(rec["history"][-1])
        f_l[key] = min(f_l.get(key, best), best)
    rows = []
    for rec in records:
        key = (rec["problem"], rec["n_p"], rec["seed"])
        for tau in taus:
            rows.append(ResultRow(
                problem=rec["problem"], n_p=rec["n_p"], seed=rec["seed"],
                solver=rec["solver"], tau=tau,
                t_ps=evals_to_converge(rec["history"], rec["f0"], f_l[key], tau),
                f0=rec["f0"], f_best=float(rec["history"][-1]),
                evals_used=len(rec["history"]),
            ))
    return ResultTable(rows)


@dataclass(frozen=True)
class ProfileCurve:
    """Right-continuous step curve for one solver.

    ``points`` pairs a strictly increasing abscissa with non-decreasing
    values in [0, 1]; the curve value at a query is the value of the
    largest breakpoint not exceeding it (0 before the first).
    """

    solver: str
    kind: str
    tau: float
    points: tuple

    def value_at(self, a: float) -> float:
        val = 0.0
        for x, y in self.points:
            if x <= a:
                val = y
            else:
                break
        return val


def _collect(table: ResultTable, tau: float):
    """The sorted instance keys, solvers and ``t_ps`` by (key, solver) at tau.

    Each row is keyed once.
    """
    t = {}
    for r in table.rows:
        if r.tau == tau:
            run = (r.key(), r.solver)
            if run in t:
                # a repeated run would otherwise silently replace the earlier row
                raise ValueError(
                    f"run problem={r.problem} n_p={r.n_p} seed={r.seed} "
                    f"solver={r.solver} appears twice at tau={tau}")
            t[run] = r.t_ps
    if not t:
        raise EmptyInput(f"no rows at tau={tau}")
    keys = sorted({key for key, _ in t})
    solvers = sorted({s for _, s in t})
    return keys, solvers, t


def _float_points(breakpoints, achieved, n_problems):
    """Each breakpoint paired with the fraction of problems achieved by it.

    Both lists are ascending floats, each the correctly rounded image of
    an exact rational; one merge walk counts the achieved values at most
    each breakpoint.  The counts are exact: rounding is monotone and every
    achieved value is also a breakpoint, so the achieved values that round
    to at most a breakpoint ``fa`` are exactly those at most the largest
    exact breakpoint that rounds to ``fa``.
    """
    pts = []
    count = 0
    for a in breakpoints:
        while count < len(achieved) and achieved[count] <= a:
            count += 1
        pts.append((a, count / n_problems))
    return tuple(pts)


def _profile(kind, tau, keys, solvers, t, bases, extra):
    """Per-solver curves of ``t / bases[key]`` over the keys in ``bases``.

    The breakpoints are every achieved value plus ``extra``.  Python's
    int / int true division rounds correctly at any size, so each
    abscissa is its exact ratio rounded once.
    """
    achieved = {s: sorted(t[(key, s)] / base for key, base in bases.items()
                          if t.get((key, s)) is not None)
                for s in solvers}
    breakpoints = sorted(set(extra).union(*achieved.values()))
    return [
        ProfileCurve(solver=s, kind=kind, tau=tau,
                     points=_float_points(breakpoints, achieved[s], len(keys)))
        for s in solvers
    ]


def performance_profile(table: ResultTable, tau: float) -> list:
    """Per-solver fractions of problems solved within a ratio of the best.

    The ratio base for a problem is the smallest t over solvers that
    solved it; problems no solver solved still count in the denominator.
    Curves are evaluated at 1 and every achieved ratio ``t / best``, each
    rounded once to a float; the counts equal those of exact rational
    comparisons (see ``_float_points``).
    """
    keys, solvers, t = _collect(table, tau)
    bases = {}
    for key in keys:
        solved = [t[(key, s)] for s in solvers if t.get((key, s)) is not None]
        if solved:
            bases[key] = min(solved)
    return _profile("performance", tau, keys, solvers, t, bases, (1.0,))


def data_profile(table: ResultTable, tau: float,
                 kappa_max: Optional[float] = None) -> list:
    """Per-solver fractions solved within kappa * (n_p + 1) evaluations.

    Curves are evaluated at 0, every achieved kappa ``t / (n_p + 1)``
    rounded once to a float, and ``kappa_max`` when given, which must be
    finite and positive (with the standard budget, the value at multiplier
    100 is the fraction solved at all); the counts equal those of exact
    rational comparisons (see ``_float_points``).
    """
    extra = [0.0]
    if kappa_max is not None:
        if not 0 < kappa_max <= sys.float_info.max:
            raise ValueError(f"kappa_max must be finite and > 0, got {kappa_max}")
        extra.append(float(kappa_max))
    keys, solvers, t = _collect(table, tau)
    bases = {key: key[1] + 1 for key in keys}  # key = (problem, n_p, seed)
    return _profile("data", tau, keys, solvers, t, bases, extra)


def profile_curve_csv(curve: ProfileCurve) -> str:
    """The curve as CSV; solver, kind and tau are quoted once, by ``csv``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        (curve.solver, curve.kind, repr(curve.tau)))
    prefix = buf.getvalue()[:-1]
    return "solver,kind,tau,abscissa,value\n" + "".join(
        [f"{prefix},{a!r},{v!r}\n" for a, v in curve.points])
