"""Layered benchmark of the manisearch grid runner and profile builder.

Run from the repository root:

    python3 perfbench/run.py --workload smooth-basis --seed 1 --seconds 30 --trace 0

Every workload drives the public CLI entry point in this one process,
with BLAS pinned to one thread:

  smooth-basis     ``manisearch run``: the 8 smooth problems x dims {2,10,50}
                   x {rds-sb, rdse-sb, zo-rgd}, budget 100 (n_p + 1), one
                   instance seed per pass
  nonsmooth-dense  ``manisearch run``: sparsest-vector, nonsmooth-mc x dims
                   {25,50,100} x {rds-dd, rdse-dd}, two instance seeds per pass
  profile-table    ``manisearch profile --kind both --svg`` on a seeded
                   synthetic results.csv of 500 instances x 5 solvers x 2 taus

``--seed`` fixes the inputs (instance seeds, synthetic table).
``--seconds`` fixes how much work a run does: the number of identical
passes is ``--seconds`` over the workload's nominal pass time on a 2-core
x86 host, and at least one, so the work never depends on the speed of the
host.  Timings are medians over passes.  Outputs are checked after each
pass, outside the timed section.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics; spans are
saved to ``.perfbench_work/<workload>/spans.csv``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import synth
import tracing

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TAUS = ("0.1", "0.001")
BUDGET_MULT = 100
SETUP_REPS = 3
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import manisearch.cli; "
                 "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Grid:
    problems: tuple
    dims: tuple
    solvers: tuple
    seeds_per_pass: int
    rerun_dims: tuple  # cheap slice run again to check determinism
    nominal_pass_s: float


GRIDS = {
    "smooth-basis": Grid(
        problems=("largest-eig", "largest-sv", "top-sv", "dict-learning",
                  "sync-rotations", "matrix-completion", "gmm", "procrustes"),
        dims=(2, 10, 50), solvers=("rds-sb", "rdse-sb", "zo-rgd"),
        seeds_per_pass=1, rerun_dims=(10,), nominal_pass_s=30.0),
    "nonsmooth-dense": Grid(
        problems=("sparsest-vector", "nonsmooth-mc"),
        dims=(25, 50, 100), solvers=("rds-dd", "rdse-dd"),
        seeds_per_pass=2, rerun_dims=(25,), nominal_pass_s=24.0),
}
WORKLOADS = (*GRIDS, "profile-table")


class Ops:
    """Operations attempted and the problems found with each."""

    def __init__(self):
        self.problems = {}

    def add(self, op, problems=()):
        self.problems.setdefault(op, []).extend(problems)

    @property
    def failed(self):
        return sum(1 for p in self.problems.values() if p)

    def report(self, limit=20):
        bad = [(op, p) for op, p in self.problems.items() if p]
        for op, p in bad[:limit]:
            print(f"FAIL {op}: {'; '.join(p)}")
        if len(bad) > limit:
            print(f"FAIL ... and {len(bad) - limit} more")


def _timed_main(cli, argv, tracer=None):
    """Run ``cli.main(argv)``; return (wall seconds, exit code or error text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli", cli.main, (argv,), {}, new_run=True)
            wall = time.perf_counter() - t0
    except Exception:  # the benchmark records the failure and goes on
        return 0.0, traceback.format_exc(limit=3)
    return wall, rc


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read_rows(text):
    return list(csv.reader(io.StringIO(text)))[1:]


def _solved_fracs(rows):
    """Share of rows with a t_ps, per tau (rows as CSV records)."""
    out = {}
    for tau in TAUS:
        at = [r for r in rows if float(r[4]) == float(tau)]
        out[tau] = sum(1 for r in at if r[5] != "") / len(at) if at else 0.0
    return out


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------

class GridBench:
    """``manisearch run`` over one grid; an operation is one solver run."""

    def __init__(self, name, seed, work):
        self.grid = GRIDS[name]
        self.nominal_pass_s = self.grid.nominal_pass_s
        self.seeds = [seed * self.grid.seeds_per_pass + j
                      for j in range(self.grid.seeds_per_pass)]
        self.work = work
        self.table_text = ""

    def setup(self):
        """Build every instance of the grid: run keys and known optima."""
        from manisearch.problems import build_instance
        self.known_opt = {}
        for problem in self.grid.problems:
            for dim in self.grid.dims:
                for seed in self.seeds:
                    inst = build_instance(problem, dim, seed)
                    self.known_opt[(problem, inst.ambient_dim, seed)] = inst.known_opt
        self.run_keys = [(*key, s) for key in self.known_opt for s in self.grid.solvers]

    def argv(self, out, dims=None):
        g = self.grid
        return ["run", "--problems", ",".join(g.problems),
                "--dims", ",".join(map(str, dims or g.dims)),
                "--seeds", ",".join(map(str, self.seeds)),
                "--solvers", ",".join(g.solvers),
                "--budget-mult", str(BUDGET_MULT), "--tau", ",".join(TAUS),
                "--out", str(out)]

    def run_pass(self, cli, label, ops, tracer=None):
        """One timed grid pass, then its checks; returns (wall, evals, results.csv)."""
        out = _fresh(self.work / label)
        runs = {}

        def on_run(inst, solver, cfg, trace):
            runs[(inst.name, inst.ambient_dim, inst.seed, solver)] = (cfg, trace, inst)

        if tracer is None:
            restore = tracing.capture_runs(on_run)
        else:
            restore = tracing.install(tracer, on_run)
        try:
            wall, rc = _timed_main(cli, self.argv(out), tracer)
        finally:
            restore()
        table = out / "results.csv"
        text = table.read_text() if rc == 0 and table.exists() else ""
        self.table_text = self.table_text or text
        evals_used = {tuple(r[:4]): int(r[8]) for r in _read_rows(text)}
        for key in self.run_keys:
            problem, n_p, seed, solver = key
            used = evals_used.get((problem, str(n_p), str(seed), solver))
            if rc != 0:
                problems = [f"manisearch run failed: {rc}"]
            elif key not in runs or used is None:
                problems = ["run missing"]
            else:
                cfg, trace, inst = runs[key]
                history = checks.read_trace(
                    out / "traces" / f"{problem}__{n_p}__{seed}__{solver}.csv")
                problems = checks.check_run(
                    history, used, cfg.budget, self.known_opt[key[:3]],
                    trace.final_point.residual(), inst.manifold.feasibility_tol)
            ops.add((label, *key), problems)
        return wall, sum(evals_used.values()), text

    def check_rerun(self, cli, ops):
        """Run the cheap slice again; its table must hash like the same rows of pass 0."""
        out = _fresh(self.work / "rerun")
        _, rc = _timed_main(cli, self.argv(out, self.grid.rerun_dims))
        again = (out / "results.csv").read_text() if rc == 0 else ""
        keys = {tuple(r[:3]) for r in _read_rows(again)}
        lines = self.table_text.splitlines(keepends=True)
        subset = lines[:1] + [ln for ln in lines[1:] if tuple(ln.split(",")[:3]) in keys]
        if keys and checks.sha256("".join(subset)) == checks.sha256(again):
            return
        for key in self.run_keys:
            if not keys or (key[0], str(key[1]), str(key[2])) in keys:
                ops.add(("pass0", *key), [f"results.csv differs on rerun ({rc})"])


# ---------------------------------------------------------------------------
# profile workload
# ---------------------------------------------------------------------------

class ProfileBench:
    """``manisearch profile`` on a synthetic table; an operation is one curve."""

    nominal_pass_s = 7.5
    instances = 500

    def __init__(self, name, seed, work):
        self.seed = seed
        self.work = work
        self.run_keys = [(kind, tau, s) for tau in synth.TAUS
                         for kind in ("performance", "data") for s in synth.SOLVERS]

    def setup(self):
        """Generate the synthetic table and write it where the CLI reads it."""
        self.rows = synth.generate(self.seed, self.instances)
        self.table_text = synth.to_csv(self.rows)
        (_fresh(self.work / "table") / "results.csv").write_text(self.table_text)

    def run_pass(self, cli, label, ops, tracer=None):
        """One timed profile pass, then its checks; returns (wall, rows, curves)."""
        table_dir = self.work / "table"
        prof_dir = table_dir / "profiles"
        shutil.rmtree(prof_dir, ignore_errors=True)
        argv = ["profile", "--out", str(table_dir), "--kind", "both", "--svg"]
        restore = tracing.install(tracer) if tracer is not None else (lambda: None)
        try:
            wall, rc = _timed_main(cli, argv, tracer)
        finally:
            restore()
        rng = random.Random(f"{self.seed}/{label}")
        exact = {}
        for kind, tau, solver in self.run_keys:
            path = prof_dir / f"{solver}__{kind}__tau{tau:g}.csv"
            if rc != 0:
                problems = [f"manisearch profile failed: {rc}"]
            elif not path.exists():
                problems = ["curve missing"]
            else:
                if (kind, tau) not in exact:
                    exact[(kind, tau)] = checks.achieved(self.rows, kind, tau)
                by_solver, n_problems = exact[(kind, tau)]
                problems = checks.check_curve(checks.read_curve(path),
                                              by_solver[solver], n_problems, rng)
            ops.add((label, kind, tau, solver), problems)
        outputs = "".join(f.name + "\n" + f.read_text()
                          for f in sorted(prof_dir.glob("*"))) if rc == 0 else ""
        return wall, len(self.rows), outputs

    def check_rerun(self, cli, ops):
        """Repeated passes already compare their outputs."""


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, overhead_s):
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def us_per_call(name):
        n, _, total = summary.get(name, (0, 0.0, 0.0))
        return 1e6 * total / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    evals = calls("problems.evaluate")
    m = {}
    for layer, name, extra in (
        ("directions.spanning_basis", "directions.spanning_basis", True),
        ("manifolds.retract", "manifolds.retract", True),
        ("directions.dense_direction", "directions.dense_direction", True),
        ("manifolds.project_tangent", "manifolds.project_tangent", False),
        ("manifolds.random_tangent", "manifolds.random_tangent", False),
        ("problems.evaluate", "problems.evaluate", True),
        ("solvers.linesearch", "solvers.linesearch", False),
        ("cli.write", "cli.write", False),
    ):
        m[f"{layer}.calls"] = (calls(name), "count")
        m[f"{layer}.self_s"] = (self_s(name), "s")
        if extra:
            m[f"{layer}.us_per_call"] = (us_per_call(name), "us")
    m["directions.basis_vectors_built"] = (counts["basis_vectors_built"], "count")
    m["directions.basis_vectors_per_eval"] = (
        ratio(counts["basis_vectors_built"], evals), "vectors/eval")
    m["directions.dense_zero_frac"] = (
        ratio(counts["dense_zero"], counts["dense_directions"]), "fraction")
    m["problems.build_instance.self_s"] = (self_s("problems.build_instance"), "s")
    m["solvers.self_s"] = (self_s("solvers.run_solver"), "s")
    m["solvers.linesearch.accept_frac"] = (
        ratio(counts["linesearch_accepts"], calls("solvers.linesearch")), "fraction")
    m["solvers.accepts"] = (counts["accepts"], "count")
    m["solvers.nonstrict_accepts"] = (counts["nonstrict_accepts"], "count")
    m["solvers.accept_frac"] = (ratio(counts["accepts"], evals), "accepts/eval")
    m["solvers.budget_capped_frac"] = (
        ratio(counts["budget_capped"], counts["runs"]), "fraction")
    for name in ("performance_profile", "data_profile", "from_csv", "to_csv",
                 "assemble_results", "profile_curve_csv"):
        m[f"bench.{name}.self_s"] = (self_s(f"bench.{name}"), "s")
    m["bench.profile_points"] = (counts["profile_points"], "count")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["cli.write.bytes"] = (counts["write_bytes"], "bytes")
    m["cli.render_svg.self_s"] = (self_s("cli.render_svg"), "s")
    m["trace.spans"] = (len(tracer.names), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def environment(kernels):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels.USING_NUMBA": kernels.USING_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def fresh_import_seconds(src: Path) -> float:
    """Import time of the package in a new interpreter with the same BLAS pin."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    src = ROOT / "src"
    if not (src / "manisearch" / "__init__.py").is_file():
        print(f"error: no manisearch package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    from manisearch import cli, kernels
    import_s = time.perf_counter() - t0

    work = _fresh(WORK / args.workload)
    bench_cls = ProfileBench if args.workload == "profile-table" else GridBench
    wl = bench_cls(args.workload, args.seed, work)
    # set-up is imports, instance builds and table generation; each is
    # repeated (imports in new interpreters) and the medians are added
    import_times = [import_s] + [fresh_import_seconds(src)
                                 for _ in range(SETUP_REPS - 1)]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    ops = Ops()
    n_passes = 1 if args.trace else max(1, round(args.seconds / wl.nominal_pass_s))
    walls, units, outputs = [], [], []
    for k in range(n_passes):
        wall, n_units, out = wl.run_pass(cli, f"pass{k}", ops)
        walls.append(wall)
        units.append(n_units)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = tracing.Tracer()
        traced_wall, _, out = wl.run_pass(cli, "traced", ops, tracer)
        outputs.append(out)
        tracer.write(work / "spans.csv")
        metrics = layer_metrics(tracer, traced_wall - walls[0])
    else:
        solved = _solved_fracs(_read_rows(wl.table_text))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "us_per_eval": (1e6 * statistics.median(
                w / max(u, 1) for w, u in zip(walls, units)), "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "solved_frac_tau1e-1": (solved["0.1"], "fraction"),
            "solved_frac_tau1e-3": (solved["0.001"], "fraction"),
        }
    for k, out in enumerate(outputs[1:], 1):
        if checks.sha256(out) != checks.sha256(outputs[0]):
            label = "traced" if args.trace else f"pass{k}"
            for key in wl.run_keys:
                ops.add((label, *key), ["outputs differ from pass 0"])
    wl.check_rerun(cli, ops)

    print("env " + json.dumps(environment(kernels), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} passes {n_passes} "
          f"walls_s {[round(w, 4) for w in walls]} "
          f"outputs_sha256 {checks.sha256(outputs[0])}")
    ops.report()
    attempted = len(ops.problems)
    print(f"failed_frac {ops.failed / attempted:.6f} ({ops.failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
