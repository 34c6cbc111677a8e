"""Seeded synthetic result table for the ``profile-table`` workload.

The table has the layout ``manisearch run`` writes to ``results.csv``:
one row per (instance, solver, tau), ordered instance, solver, tau.
Each instance is budget-capped at ``100 * (n_p + 1)`` evaluations; a
run either solves at an integer ``t_ps`` in ``[1, budget]`` or stays
unsolved, and a run that solves the tighter tau has solved the looser
one no later.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Optional

HEADER = ("problem", "n_p", "seed", "solver", "tau",
          "t_ps", "f0", "f_best", "evals_used")
PROBLEMS = ("largest-eig", "largest-sv", "top-sv", "dict-learning",
            "sync-rotations", "matrix-completion", "gmm", "procrustes",
            "sparsest-vector", "nonsmooth-mc")
SOLVERS = ("rds-sb", "rdse-sb", "rds-dd", "rdse-dd", "zo-rgd")
TAUS = (0.1, 0.001)
BUDGET_MULT = 100


@dataclass(frozen=True)
class Row:
    problem: str
    n_p: int
    seed: int
    solver: str
    tau: float
    t_ps: Optional[int]
    f0: float
    f_best: float
    evals_used: int


def generate(seed: int, n_instances: int = 500) -> list:
    """Rows of a synthetic table of ``n_instances`` x 5 solvers x 2 taus."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_instances):
        problem = PROBLEMS[i % len(PROBLEMS)]
        n_p = rng.randint(2, 200)
        budget = BUDGET_MULT * (n_p + 1)
        f0 = rng.uniform(1.0, 10.0)
        for solver in SOLVERS:
            loose = rng.randint(1, budget) if rng.random() < 0.8 else None
            tight = None
            if loose is not None and rng.random() < 0.6:
                tight = rng.randint(loose, budget)
            gap = 1e-4 if tight is not None else 0.05 if loose is not None else 0.5
            for tau, t_ps in zip(TAUS, (loose, tight)):
                rows.append(Row(problem, n_p, i, solver, tau, t_ps,
                                f0, f0 * gap, budget))
    return rows


def to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(HEADER)
    for r in rows:
        w.writerow([r.problem, r.n_p, r.seed, r.solver, repr(r.tau),
                    "" if r.t_ps is None else r.t_ps,
                    repr(r.f0), repr(r.f_best), r.evals_used])
    return buf.getvalue()
