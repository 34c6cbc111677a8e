"""In-memory span tracer and the wrappers that time calls into each layer.

``install`` replaces the public functions that ``manisearch.cli`` and
``manisearch.solvers`` call with wrappers that record one span per call:
name, start, end, parent span and run id.  A run id is given to each
CLI call and to each solver run inside it.  Spans stay in memory until
``Tracer.write`` saves them; ``self_times`` turns them into per-layer
self time (span time minus the time of its direct child spans).  Nothing
in the package itself is edited; ``install`` returns a function that puts
every original back.
"""

from __future__ import annotations

import collections
import functools
import pathlib
import time


class Tracer:
    """Span recorder.  Spans are parallel lists indexed by span id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.counts = collections.Counter()
        self._stack = []
        self._run = 0
        self._next_run = 1

    def call(self, name, fn, args, kwargs, new_run=False):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.names)
        prev_run = self._run
        if new_run:
            self._run = self._next_run
            self._next_run += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._run)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = self.clock()
            self._stack.pop()
            self._run = prev_run

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict:
        """``{name: (calls, self_s, total_s)}`` over all recorded spans."""
        out = {}
        for name, own, s, e in zip(self.names, self.self_times(),
                                   self.starts, self.ends):
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + own, total_s + (e - s))
        return out

    def write(self, path: pathlib.Path) -> None:
        """Save every span as one CSV line: id,name,start,end,parent,run."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["id,name,start_s,end_s,parent,run"]
        for i, (n, s, e, p, r) in enumerate(zip(self.names, self.starts, self.ends,
                                                 self.parents, self.runs)):
            lines.append(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _patch(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)``; return the undo step."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    return lambda: setattr(owner, attr, original)


def _spanned(tracer, name, after=None, new_run=False):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, new_run)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper
    return make


def _spanned_classmethod(tracer, name):
    def make(cm):
        return classmethod(_spanned(tracer, name)(cm.__func__))
    return make


def install(tracer: Tracer, on_run=None):
    """Wrap each layer's public entry points; return a function undoing it.

    ``on_run(inst, solver, cfg, trace)`` is called after every solver run.
    Accepted steps are counted through the solvers' ``on_accept`` hook.
    """
    from manisearch import bench, cli, solvers
    from manisearch.manifolds import Manifold
    from manisearch.problems import ProblemInstance

    counts = tracer.counts

    def count_basis(basis, args, kwargs):
        counts["basis_vectors_built"] += len(basis.vectors)

    def count_dense(d, args, kwargs):
        counts["dense_directions"] += 1
        counts["dense_zero"] += d.is_zero()

    def count_linesearch(res, args, kwargs):
        counts["linesearch_accepts"] += res.alpha > 0

    def count_points(curves, args, kwargs):
        counts["profile_points"] += sum(len(c.points) for c in curves)

    def count_write(result, args, kwargs):
        data = args[1] if len(args) > 1 else kwargs["data"]
        counts["write_bytes"] += len(data.encode())

    def on_accept(x, d, alpha, f_x, f_new):
        counts["accepts"] += 1
        counts["nonstrict_accepts"] += f_new >= f_x

    def spanned_run_solver(fn):
        @functools.wraps(fn)
        def wrapper(name, problem, cfg, **kwargs):
            if name != "zo-rgd":
                kwargs["on_accept"] = on_accept
            result = tracer.call("solvers.run_solver", fn,
                                 (name, problem, cfg), kwargs, new_run=True)
            counts["runs"] += 1
            counts["budget_capped"] += result.evals_used >= cfg.budget
            if on_run is not None:
                on_run(problem, name, cfg, result)
            return result
        return wrapper

    patches = [
        (ProblemInstance, "evaluate", _spanned(tracer, "problems.evaluate")),
        (cli, "build_instance", _spanned(tracer, "problems.build_instance")),
        (Manifold, "retract", _spanned(tracer, "manifolds.retract")),
        (Manifold, "project_tangent", _spanned(tracer, "manifolds.project_tangent")),
        (solvers, "random_tangent", _spanned(tracer, "manifolds.random_tangent")),
        (solvers, "spanning_basis",
         _spanned(tracer, "directions.spanning_basis", count_basis)),
        (solvers, "dense_direction",
         _spanned(tracer, "directions.dense_direction", count_dense)),
        (solvers, "linesearch_extrapolate",
         _spanned(tracer, "solvers.linesearch", count_linesearch)),
        (cli, "run_solver", spanned_run_solver),
        (bench, "assemble_results", _spanned(tracer, "bench.assemble_results")),
        (bench, "performance_profile",
         _spanned(tracer, "bench.performance_profile", count_points)),
        (bench, "data_profile", _spanned(tracer, "bench.data_profile", count_points)),
        (bench, "profile_curve_csv", _spanned(tracer, "bench.profile_curve_csv")),
        (bench.ResultTable, "to_csv", _spanned(tracer, "bench.to_csv")),
        (bench.ResultTable, "from_csv", _spanned_classmethod(tracer, "bench.from_csv")),
        (pathlib.Path, "write_text", _spanned(tracer, "cli.write", count_write)),
        (cli, "render_profile_svg", _spanned(tracer, "cli.render_svg")),
    ]
    undo = [_patch(owner, attr, make) for owner, attr, make in patches]

    def restore():
        for step in reversed(undo):
            step()
    return restore


def capture_runs(on_run):
    """Untraced counterpart of ``install``: report each solver run, time nothing.

    The correctness checks need every run's final point, which the CLI
    does not write out; this is one extra call per solver run.
    """
    from manisearch import cli

    def make(fn):
        @functools.wraps(fn)
        def wrapper(name, problem, cfg, **kwargs):
            result = fn(name, problem, cfg, **kwargs)
            on_run(problem, name, cfg, result)
            return result
        return wrapper
    return _patch(cli, "run_solver", make)
