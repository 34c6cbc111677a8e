"""Batch front end: run solver/problem grids, emit profiles, run checks.

Subcommands
-----------
run      execute a problems x dims x seeds x solvers grid, write the
         result table CSV plus one trace CSV per run.  The grid is one
         list of cells (``grid_cells``: instance, solver and checked
         config, all built before any output), each run by ``run_cell``;
         a dim resolving to an instance already listed runs once
profile  turn a result table into data/performance profile curves
         (CSV per solver, optional SVG plot); nothing is written unless
         every curve can be computed
check    run the invariant suites and exit nonzero on any failure

Configuration is a flat ``key = value`` text file (comma-separated
lists, ``#`` comments, ``<solver>.<param>`` for per-solver overrides);
command-line flags override file values.  The library decides whether a
run may start; the CLI checks only what no library call sees before any
output.  Exit status: 0 success, 1 validation error, 2 check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import bench
from .errors import CliError, ManisearchError
from .problems import PROBLEM_NAMES, ProblemInstance, build_instance
from .solvers import SolverConfig, check_config, check_overrides, default_config, run_solver

_CONFIG_KEYS = ("problems", "dims", "seeds", "solvers", "budget_mult", "taus", "out")


def stable_seed(*parts) -> int:
    """Platform-independent seed derived from string parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``path`` through ``<name>.tmp`` and a rename.

    An interrupted or failed write leaves the previous file intact rather
    than a half-written one.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _refuse_non_files(paths) -> None:
    """Raise ``CliError`` where a file to be written exists and is not a file.

    Checked before any work starts, so such a layout ends the command
    with an error instead of a traceback after part of the output.
    """
    for p in paths:
        if p.exists() and not p.is_file():
            raise CliError(f"output path {p} is not a file")


# files are named by repr(tau), the shortest string that reads back as tau,
# so distinct taus never share a file; for a tau of at most six significant
# digits it equals the ``{tau:g}`` form (0.1, 0.001)
def _curve_name(solver, kind, tau) -> str:
    return f"{solver}__{kind}__tau{tau!r}.csv"


def _plot_name(kind, tau) -> str:
    return f"{kind}__tau{tau!r}.svg"


def parse_config_file(path: Path) -> dict:
    """Flat key=value config; ``<solver>.<param>`` sets a parameter the solver
    reads, each such line checked alone by ``check_overrides`` and
    ``default_config``."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc.strerror}") from None
    out, first = {"solver_overrides": {}}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in first:  # a later line would silently undo the first
            raise CliError(f"{path}:{lineno}: '{key}' is set twice, first on line {first[key]}")
        first[key] = lineno
        if "." in key:
            solver, param = key.split(".", 1)
            try:
                number = float(value)
            except ValueError:
                raise CliError(f"{path}:{lineno}: '{key}' needs a number, got '{value}'") from None
            try:
                check_overrides(solver, [param])
                default_config(solver, 1, 0, **{param: number})
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {key} = {value}: {exc}") from None
            out["solver_overrides"].setdefault(solver, {})[param] = number
        elif key in _CONFIG_KEYS:
            out[key] = value
        else:
            raise CliError(f"{path}:{lineno}: unknown key '{key}'")
    return out


def _split_list(value: str) -> list:
    return [s.strip() for s in str(value).split(",") if s.strip()]


def _reject_repeats(key: str, values: list) -> None:
    # a repeated entry would run or count the same thing twice
    twice = [v for i, v in enumerate(values) if v in values[:i]]
    if twice:
        raise CliError(f"{key} lists {twice[0]!r} twice")


def _parse_taus(text) -> list:
    """Accuracies from a comma list: at least one, each in (0, 1), none twice."""
    try:
        taus = [float(t) for t in _split_list(text)]
    except ValueError as exc:
        raise CliError(f"bad numeric value in taus: {exc}") from None
    if not taus:
        raise CliError("taus needs at least one value")
    _reject_repeats("taus", taus)
    for t in taus:
        if not 0 < t < 1:
            raise CliError(f"tau must lie in (0, 1), got {t}")
    return taus


def _resolve_run_settings(args) -> dict:
    cfg = {"solver_overrides": {}}
    if args.config:
        cfg.update(parse_config_file(Path(args.config)))
    for key, flag in (("problems", args.problems), ("dims", args.dims),
                      ("seeds", args.seeds), ("solvers", args.solvers),
                      ("budget_mult", args.budget_mult), ("taus", args.tau),
                      ("out", args.out)):
        if flag is not None:
            cfg[key] = flag
    problems = _split_list(cfg.get("problems", ",".join(PROBLEM_NAMES)))
    solvers = _split_list(cfg.get("solvers", "rds-sb,rdse-sb"))
    try:
        dims = [int(d) for d in _split_list(cfg.get("dims", "2,10"))]
        seeds = [int(s) for s in _split_list(cfg.get("seeds", "0"))]
        budget_mult = int(cfg.get("budget_mult", 100))
    except ValueError as exc:
        raise CliError(f"bad numeric value in configuration: {exc}") from None
    for key, values in (("problems", problems), ("dims", dims), ("seeds", seeds),
                        ("solvers", solvers)):
        if not values:
            raise CliError(f"{key} needs at least one value")
        _reject_repeats(key, values)
    taus = _parse_taus(cfg.get("taus", "0.1,0.001"))
    for s in seeds:
        if s < 0:
            raise CliError(f"seed must be an integer >= 0, got {s}")
    if budget_mult < 1:
        raise CliError("budget_mult must be >= 1")
    out = Path(cfg.get("out", "results"))
    # run writes into out, creating it and its missing parents
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise CliError(f"output path {out}: {p} is not a directory")
    return dict(
        problems=problems, dims=dims, seeds=seeds, solvers=solvers,
        budget_mult=budget_mult, taus=taus, out=out,
        solver_overrides=cfg["solver_overrides"],
    )


class Cell(NamedTuple):
    """One run of a grid: a solver on a built instance, with its checked config."""
    inst: ProblemInstance
    solver: str
    cfg: SolverConfig

    def trace_name(self) -> str:
        inst = self.inst
        return f"{inst.name}__{inst.ambient_dim}__{inst.seed}__{self.solver}.csv"


def grid_cells(problems, dims, seeds, solvers, budget_mult, overrides) -> list:
    """The runs of a problems x dims x seeds x solvers grid, in grid order.

    Every instance is built, and every run's config made from ``overrides``
    (solver -> {param: value}) and checked against its instance, before
    anything runs; the library refuses an unknown problem or solver, a dim
    below 2 and zo-rgd on a nonsmooth problem.  A dim resolving to an
    instance already listed is skipped, as rerunning it would only double it.
    """
    cells = []
    seen = set()
    for problem in problems:
        for dim in dims:
            for seed in seeds:
                inst = build_instance(problem, dim, seed)
                n_p = inst.ambient_dim
                if (problem, n_p, seed) in seen:
                    print(f"note: {problem} dim {dim} resolves to n_p={n_p}, "
                          "already listed; skipping duplicate")
                    continue
                seen.add((problem, n_p, seed))
                for solver in solvers:
                    cfg = default_config(solver, budget_mult * (n_p + 1),
                                         stable_seed(problem, n_p, seed, solver),
                                         **overrides.get(solver, {}))
                    check_config(solver, cfg, inst)
                    cells.append(Cell(inst, solver, cfg))
    return cells


def run_cell(cell: Cell, on_accept=None) -> dict:
    """Run one cell; return the record ``bench.assemble_results`` reads."""
    inst = cell.inst
    trace = run_solver(cell.solver, inst, cell.cfg, on_accept=on_accept)
    return dict(problem=inst.name, n_p=inst.ambient_dim, seed=inst.seed,
                solver=cell.solver, history=trace.history, f0=inst.f0)


def cmd_run(args) -> int:
    settings = _resolve_run_settings(args)
    cells = grid_cells(settings["problems"], settings["dims"], settings["seeds"],
                       settings["solvers"], settings["budget_mult"],
                       settings["solver_overrides"])
    out = settings["out"]
    traces_dir = out / "traces"
    if traces_dir.exists() and not traces_dir.is_dir():
        raise CliError(f"output path {traces_dir} is not a directory")
    _refuse_non_files([out / "results.csv", *(traces_dir / c.trace_name() for c in cells)])
    # a run cut short must not leave a previous table beside its new traces
    (out / "results.csv").unlink(missing_ok=True)
    traces_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for cell in cells:
        rec = run_cell(cell)
        records.append(rec)
        # tolist() yields Python floats, whose repr is the shortest round trip
        lines = ["eval_index,best_f"] + [
            f"{i},{v!r}" for i, v in enumerate(rec["history"].tolist(), 1)]
        _write_atomic(traces_dir / cell.trace_name(), "\n".join(lines) + "\n")
    table = bench.assemble_results(records, settings["taus"])
    _write_atomic(out / "results.csv", table.to_csv())
    n_keys = len({(r["problem"], r["n_p"], r["seed"]) for r in records})
    for solver in settings["solvers"]:
        parts = []
        for tau in settings["taus"]:
            solved = sum(1 for r in table.rows
                         if r.solver == solver and r.tau == tau
                         and r.t_ps is not None)
            parts.append(f"tau={tau!r}: {solved}/{n_keys}")
        print(f"{solver}: solved " + ", ".join(parts))
    print(f"wrote {out / 'results.csv'} and {len(records)} trace files")
    return 0


def cmd_profile(args) -> int:
    out = Path(args.out) if args.out else Path("results")
    table_path = out / "results.csv"
    if not table_path.is_file():
        raise CliError(f"no result table at {table_path}")
    prof_dir = out / "profiles"
    if prof_dir.exists() and not prof_dir.is_dir():
        raise CliError(f"output path {prof_dir} is not a directory")
    table = bench.ResultTable.from_csv(table_path.read_text())
    bucket = args.bucket or "all"
    if bucket not in ("all", *bench.SIZE_BUCKETS):
        raise CliError(f"unknown bucket '{bucket}'")
    table = table.filter(bucket=bucket)
    if not table.rows:
        raise CliError(f"no rows left after bucket filter '{bucket}'")
    taus = _parse_taus(args.tau) if args.tau is not None else table.taus()
    kinds = ("performance", "data") if args.kind == "both" else (args.kind,)
    budget_mult = args.budget_mult if args.budget_mult is not None else 100
    if budget_mult < 1:
        raise CliError("budget_mult must be >= 1")
    # the files to be written: a curve for each solver with rows at tau
    names = []
    for tau in taus:
        solvers = sorted({r.solver for r in table.rows if r.tau == tau})
        for kind in kinds:
            names += [_curve_name(s, kind, tau) for s in solvers]
            if args.svg:
                names.append(_plot_name(kind, tau))
    _refuse_non_files(prof_dir / name for name in names)
    # every curve and plot is computed before profiles/ is created, so a
    # tau without rows or a repeated run leaves no partial output
    files = {}
    for tau in taus:
        for kind in kinds:
            if kind == "performance":
                curves = bench.performance_profile(table, tau)
            else:
                curves = bench.data_profile(table, tau, kappa_max=budget_mult)
            for curve in curves:
                files[_curve_name(curve.solver, kind, tau)] = bench.profile_curve_csv(curve)
            if args.svg:
                svg = render_profile_svg(curves, f"{kind} profile, tau={tau:g}")
                files[_plot_name(kind, tau)] = svg
    prof_dir.mkdir(exist_ok=True)
    for name, text in files.items():
        _write_atomic(prof_dir / name, text)
    written = sum(1 for name in files if name.endswith(".csv"))
    print(f"wrote {written} profile curve files to {prof_dir}")
    return 0


def cmd_check(args) -> int:
    from .checks import run_all

    seed = args.seed if args.seed is not None else 0
    results = run_all(seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# svg step-plot emitter (CSVs are the interface of record; this is a viewer)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


def render_profile_svg(curves, title: str) -> str:
    width, height = 640, 420
    ml, mr, mt, mb = 55, 15, 35, 40
    pw, ph = width - ml - mr, height - mt - mb
    xs = [a for c in curves for a, _ in c.points]
    x_max = max(xs) if xs else 1.0
    x_max = max(x_max, 1e-9)

    def tx(a):
        return ml + pw * (a / x_max)

    def ty(v):
        return mt + ph * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444"/>',
        f'<text x="{ml}" y="{mt - 12}" font-size="14" font-family="sans-serif">'
        f'{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = ty(frac)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                     'stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{frac:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        a = frac * x_max
        x = tx(a)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                     f'y2="{mt + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 16}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{a:g}</text>')
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        if not curve.points:
            continue
        d = [f"M {tx(curve.points[0][0]):.1f} {ty(curve.points[0][1]):.1f}"]
        prev_v = curve.points[0][1]
        for a, v in curve.points[1:]:
            d.append(f"H {tx(a):.1f}")  # hold the previous value, then jump
            if v != prev_v:
                d.append(f"V {ty(v):.1f}")
                prev_v = v
        d.append(f"H {tx(x_max):.1f}")
        parts.append(f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        ly = mt + 16 + 16 * i
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 105}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.8"/>')
        parts.append(f'<text x="{ml + pw - 100}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{curve.solver}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manisearch",
                     description="Derivative-free direct search on manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a solver/problem grid")
    run_p.add_argument("--problems", help="comma list of problem names")
    run_p.add_argument("--dims", help="comma list of requested dimensions")
    run_p.add_argument("--seeds", help="comma list of instance seeds")
    run_p.add_argument("--solvers", help="comma list of solver names")
    run_p.add_argument("--budget-mult", dest="budget_mult", type=int,
                       help="budget = mult * (n_p + 1), default 100")
    run_p.add_argument("--tau", help="comma list of accuracies in (0,1)")
    run_p.add_argument("--out", help="output directory (default results/)")
    run_p.add_argument("--config", help="key=value configuration file")
    run_p.set_defaults(func=cmd_run)

    prof_p = sub.add_parser("profile", help="compute profile curves from a table")
    prof_p.add_argument("--out", help="directory holding results.csv")
    prof_p.add_argument("--kind", choices=("performance", "data", "both"),
                        default="both")
    prof_p.add_argument("--tau",
                        help="comma list of accuracies in (0,1) (default: all in table)")
    prof_p.add_argument("--bucket", help="size filter: small, medium, large, all")
    prof_p.add_argument("--budget-mult", dest="budget_mult", type=int,
                        help="right edge of data profiles (default 100)")
    prof_p.add_argument("--svg", action="store_true", help="also render SVG plots")
    prof_p.set_defaults(func=cmd_profile)

    check_p = sub.add_parser("check", help="run the invariant suites")
    check_p.add_argument("--seed", type=int, help="suite seed (default 0)")
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ManisearchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an array larger than the host can hold (a problem
        # dimension too large to build) before allocating any of it
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
