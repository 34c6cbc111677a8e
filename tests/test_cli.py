import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manisearch import cli
from manisearch.bench import CSV_HEADER, ResultTable
from manisearch.checks import CheckResult, direction_checks, geometry_checks
from manisearch.cli import main, parse_config_file, render_profile_svg, stable_seed
from manisearch.errors import CliError
from manisearch.manifolds import Product, Sphere, Stiefel
from manisearch.problems import NONSMOOTH_PROBLEMS, SMOOTH_PROBLEMS
from manisearch.solvers import DEFAULT_PARAMS, default_config


RUN_ARGS = [
    "run",
    "--problems", "largest-eig,sparsest-vector",
    "--dims", "4",
    "--seeds", "0,1",
    "--solvers", "rds-sb,rdse-sb",
    "--budget-mult", "6",
    "--tau", "0.1,0.5",
]


def test_stable_seed_is_deterministic():
    assert stable_seed("a", 1, "b") == stable_seed("a", 1, "b")
    assert stable_seed("a", 1, "b") != stable_seed("a", 1, "c")
    assert 0 <= stable_seed("x") < 2**32


def test_run_writes_table_and_traces(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    text = (out / "results.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    table = ResultTable.from_csv(text)
    # 2 problems x 1 dim x 2 seeds x 2 solvers x 2 taus
    assert len(table.rows) == 16
    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert len(traces) == 8
    assert traces[0] == "largest-eig__4__0__rds-sb.csv"
    captured = capsys.readouterr().out
    assert "rds-sb: solved" in captured
    assert "rdse-sb: solved" in captured


def test_run_budget_respected_in_trace_files(tmp_path):
    out = tmp_path / "res"
    main(RUN_ARGS + ["--out", str(out)])
    for trace_file in (out / "traces").iterdir():
        lines = trace_file.read_text().splitlines()
        assert lines[0] == "eval_index,best_f"
        n_p = int(trace_file.name.split("__")[1])
        budget = 6 * (n_p + 1)
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        assert max(indices) <= budget
        assert indices == sorted(indices)
        best = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(best[1:], best[:-1]))


def test_run_lists_an_instance_once_when_dims_resolve_to_it(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["run", "--problems", "dict-learning,sync-rotations", "--dims", "2,10",
                 "--seeds", "0", "--solvers", "rds-sb", "--budget-mult", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("skipping duplicate") == 2
    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert traces == ["dict-learning__12__0__rds-sb.csv", "sync-rotations__8__0__rds-sb.csv"]
    table = ResultTable.from_csv((out / "results.csv").read_text())
    runs = sorted({(r.problem, r.n_p, r.seed, r.solver) for r in table.rows})
    assert runs == [("dict-learning", 12, 0, "rds-sb"), ("sync-rotations", 8, 0, "rds-sb")]
    assert len(table.rows) == 2 * len(table.taus())


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(RUN_ARGS + ["--out", str(out1)])
    main(RUN_ARGS + ["--out", str(out2)])
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    for p1 in sorted((out1 / "traces").iterdir()):
        p2 = out2 / "traces" / p1.name
        assert p1.read_bytes() == p2.read_bytes()


# sha256 prefixes of a small four-solver grid's outputs; a change to how a
# history is stored, aggregated or written must leave every byte in place
PINNED_OUTPUTS = {
    "results.csv": "c12881cb3b770cab",
    "largest-eig__4__0__rds-dd.csv": "5c2954e1bb03d658",
    "largest-eig__4__0__rds-sb.csv": "f26953f57acaa68e",
    "largest-eig__4__0__rdse-dd.csv": "cb575f69aa8bbbc5",
    "largest-eig__4__0__rdse-sb.csv": "7d5da0b9ca26f9fa",
    "largest-eig__4__1__rds-dd.csv": "17a898348650b16d",
    "largest-eig__4__1__rds-sb.csv": "a6a4e73064daae40",
    "largest-eig__4__1__rdse-dd.csv": "a5bfdf5119cc5f3d",
    "largest-eig__4__1__rdse-sb.csv": "06ee8d917aa4bdc9",
    "sparsest-vector__4__0__rds-dd.csv": "7a09cf4b052450c1",
    "sparsest-vector__4__0__rds-sb.csv": "4adf78a176b7d0d0",
    "sparsest-vector__4__0__rdse-dd.csv": "e32b45404d7e11ea",
    "sparsest-vector__4__0__rdse-sb.csv": "4adf78a176b7d0d0",
    "sparsest-vector__4__1__rds-dd.csv": "fc78df263e8e8990",
    "sparsest-vector__4__1__rds-sb.csv": "621767a346bda4ea",
    "sparsest-vector__4__1__rdse-dd.csv": "3232773577e3fd2e",
    "sparsest-vector__4__1__rdse-sb.csv": "509813552ce656a3",
}


def test_run_outputs_are_pinned_bytes(tmp_path):
    out = tmp_path / "res"
    args = RUN_ARGS[:]
    args[args.index("--solvers") + 1] = "rds-sb,rdse-sb,rds-dd,rdse-dd"
    assert main(args + ["--out", str(out)]) == 0
    files = [out / "results.csv", *sorted((out / "traces").iterdir())]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in files}
    assert got == PINNED_OUTPUTS
    for p in files:
        assert "np.float64(" not in p.read_text(), p.name


# sha256 prefixes of the outputs of two small grids that reach every
# manifold kind through lone and stacked retractions: the smooth problems
# with rdse-sb and zo-rgd, and the nonsmooth ones with rdse-dd (zo-rgd
# refuses nonsmooth problems).  A change to the geometry's code, not its
# arithmetic, must leave every byte in place.  The stiefel and so entries
# (procrustes, sync-rotations, top-sv) are those of the Gram-Schmidt thin
# QR that retracts where p <= 2
PINNED_EVERY_KIND = {
    "smooth/results.csv": "5ea35c9236d435f3",
    "dict-learning__12__0__rdse-sb.csv": "366d2b10aac495b7",
    "dict-learning__12__0__zo-rgd.csv": "bdfa53940e145249",
    "gmm__9__0__rdse-sb.csv": "e26e7de9ac8930be",
    "gmm__9__0__zo-rgd.csv": "b60ab6bac4484696",
    "largest-eig__10__0__rdse-sb.csv": "71e211bc80cb93f6",
    "largest-eig__10__0__zo-rgd.csv": "3c9c7af6d6669ca4",
    "largest-sv__10__0__rdse-sb.csv": "a0a00faa8ec552ca",
    "largest-sv__10__0__zo-rgd.csv": "8f1b5f0831c3cce7",
    "matrix-completion__9__0__rdse-sb.csv": "1a91951aac2a5223",
    "matrix-completion__9__0__zo-rgd.csv": "27a562f11af71b0c",
    "procrustes__10__0__rdse-sb.csv": "0c44592e177faac0",
    "procrustes__10__0__zo-rgd.csv": "c7bceaf31354d4c2",
    "sync-rotations__8__0__rdse-sb.csv": "809391c5a1a01d83",
    "sync-rotations__8__0__zo-rgd.csv": "4c787a5582ddca02",
    "top-sv__12__0__rdse-sb.csv": "51f60253bdcfef85",
    "top-sv__12__0__zo-rgd.csv": "ede8f0c4823b023e",
    "nonsmooth/results.csv": "f08e7cc28690a4ea",
    "nonsmooth-mc__25__0__rdse-dd.csv": "6fbcb8dc4a022e9c",
    "sparsest-vector__25__0__rdse-dd.csv": "405bd5765780636a",
}


def test_every_kind_outputs_are_pinned_bytes(tmp_path):
    got = {}
    for key, problems, dim, solvers in (
            ("smooth", SMOOTH_PROBLEMS, "10", "rdse-sb,zo-rgd"),
            ("nonsmooth", NONSMOOTH_PROBLEMS, "25", "rdse-dd")):
        out = tmp_path / key
        assert main(["run", "--problems", ",".join(problems), "--dims", dim,
                     "--seeds", "0", "--solvers", solvers, "--budget-mult", "10",
                     "--out", str(out)]) == 0
        got[f"{key}/results.csv"] = hashlib.sha256(
            (out / "results.csv").read_bytes()).hexdigest()[:16]
        for p in sorted((out / "traces").iterdir()):
            got[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()[:16]
    assert got == PINNED_EVERY_KIND


def test_interrupted_rerun_leaves_no_stale_table(tmp_path, monkeypatch):
    # the table is written after the last cell, so a rerun cut short must
    # not leave the previous table beside its new traces for profile to read
    out = tmp_path / "res"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    run_cell, calls = cli.run_cell, []

    def interrupt_second_cell(*args):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return run_cell(*args)

    monkeypatch.setattr(cli, "run_cell", interrupt_second_cell)
    with pytest.raises(KeyboardInterrupt):
        main(RUN_ARGS + ["--out", str(out)])
    assert not (out / "results.csv").exists()
    assert main(["profile", "--out", str(out)]) == 1


def test_failed_table_write_leaves_no_table(tmp_path, monkeypatch):
    out = tmp_path / "res"
    out.mkdir()
    (out / "results.csv").write_text("previous table\n")
    replace = os.replace

    def refuse_table(src, dst):
        if Path(dst).name == "results.csv":
            raise OSError("simulated failure while moving the table into place")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_table)
    with pytest.raises(OSError, match="simulated"):
        main(RUN_ARGS + ["--out", str(out)])
    # the previous table went before the first trace; the failed write
    # leaves neither a half-written table nor its temporary file
    assert not (out / "results.csv").exists()
    assert len(list((out / "traces").iterdir())) == 8
    assert not list(out.rglob("*.tmp"))


def test_outputs_leave_no_temp_files(tmp_path):
    out = tmp_path / "res"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    assert main(["profile", "--out", str(out), "--budget-mult", "6", "--svg"]) == 0
    assert (out / "profiles" / "data__tau0.1.svg").exists()
    assert not list(out.rglob("*.tmp"))


def test_unknown_names_fail_with_diagnostic(tmp_path, capsys):
    assert main(["run", "--solvers", "xyz", "--out", str(tmp_path)]) == 1
    assert "xyz" in capsys.readouterr().err
    assert main(["run", "--problems", "nope", "--out", str(tmp_path)]) == 1
    assert "nope" in capsys.readouterr().err
    assert main(["run", "--dims", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "n_p" in err or "dimension" in err.lower()


def test_gradient_baseline_rejected_on_nonsmooth(tmp_path, capsys):
    assert main(["run", "--problems", "sparsest-vector", "--solvers", "zo-rgd",
                 "--out", str(tmp_path)]) == 1
    assert "smooth" in capsys.readouterr().err


def test_bad_solver_override_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rds-sb.gamma1 = 1.5\n")
    assert main(["run", "--problems", "largest-eig", "--dims", "4",
                 "--solvers", "rds-sb", "--budget-mult", "2",
                 "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "gamma1" in capsys.readouterr().err


def test_profile_command(tmp_path):
    out = tmp_path / "res"
    main(RUN_ARGS + ["--out", str(out)])
    assert main(["profile", "--out", str(out), "--tau", "0.1",
                 "--budget-mult", "6", "--svg"]) == 0
    prof = out / "profiles"
    names = sorted(p.name for p in prof.iterdir())
    assert "rds-sb__data__tau0.1.csv" in names
    assert "rdse-sb__performance__tau0.1.csv" in names
    assert "data__tau0.1.svg" in names
    curve_text = (prof / "rds-sb__data__tau0.1.csv").read_text()
    assert curve_text.splitlines()[0] == "solver,kind,tau,abscissa,value"


# a fixed table with tied counts (p1/0), an instance no solver solves
# (p2/1), equal ratios from different counts (10/5 and 40/20), equal data
# multipliers (10/5 and 20/10), and a multiplier beyond the right edge
PROFILE_TABLE = """\
problem,n_p,seed,solver,tau,t_ps,f0,f_best,evals_used
p1,4,0,a,0.1,10,1.0,0.0,30
p1,4,0,b,0.1,10,1.0,0.0,30
p1,4,0,c,0.1,,1.0,0.5,30
p1,4,1,a,0.1,5,1.0,0.0,30
p1,4,1,b,0.1,10,1.0,0.0,30
p1,4,1,c,0.1,50,1.0,0.0,60
p2,9,0,a,0.1,20,2.0,0.0,60
p2,9,0,b,0.1,40,2.0,0.0,60
p2,9,0,c,0.1,30,2.0,0.0,60
p2,9,1,a,0.1,,2.0,1.5,60
p2,9,1,b,0.1,,2.0,1.5,60
p2,9,1,c,0.1,,2.0,1.5,60
p3,2,0,a,0.1,3,1.0,0.0,18
p3,2,0,b,0.1,,1.0,0.5,18
p3,2,0,c,0.1,9,1.0,0.0,18
p1,4,0,a,0.5,4,1.0,0.0,30
p1,4,0,b,0.5,4,1.0,0.0,30
p1,4,0,c,0.5,7,1.0,0.0,30
p1,4,1,a,0.5,2,1.0,0.0,30
p1,4,1,b,0.5,6,1.0,0.0,30
p1,4,1,c,0.5,6,1.0,0.0,60
p2,9,0,a,0.5,7,2.0,0.0,60
p2,9,0,b,0.5,21,2.0,0.0,60
p2,9,0,c,0.5,,2.0,0.8,60
p2,9,1,a,0.5,,2.0,1.5,60
p2,9,1,b,0.5,,2.0,1.5,60
p2,9,1,c,0.5,,2.0,1.5,60
p3,2,0,a,0.5,1,1.0,0.0,18
p3,2,0,b,0.5,3,1.0,0.0,18
p3,2,0,c,0.5,3,1.0,0.0,18
"""

# sha256 prefixes of every curve CSV and plot written from PROFILE_TABLE;
# a change to how profiles are counted or written must leave every byte
PINNED_PROFILES = {
    "a__data__tau0.1.csv": "6fbd45696b78f153",
    "a__data__tau0.5.csv": "341143ebbea94580",
    "a__performance__tau0.1.csv": "f467cdd91c3a662c",
    "a__performance__tau0.5.csv": "abc1dd0bf08b8de0",
    "b__data__tau0.1.csv": "3985bd35cf1cb3fe",
    "b__data__tau0.5.csv": "e451dc87d456b918",
    "b__performance__tau0.1.csv": "58991f7622bec4f8",
    "b__performance__tau0.5.csv": "aca7dfd3e8b25a63",
    "c__data__tau0.1.csv": "85d8803f2f3151ac",
    "c__data__tau0.5.csv": "7cc374d6ccb337cc",
    "c__performance__tau0.1.csv": "c0988bc6e075073e",
    "c__performance__tau0.5.csv": "280ba3c20708abce",
    "data__tau0.1.svg": "a00fbc77b9a52fdd",
    "data__tau0.5.svg": "49954b5c8eef485f",
    "performance__tau0.1.svg": "8c25dbed5076b951",
    "performance__tau0.5.svg": "bf309618f88a798d",
}


def test_profile_outputs_are_pinned_bytes(tmp_path):
    out = tmp_path / "res"
    out.mkdir()
    (out / "results.csv").write_text(PROFILE_TABLE)
    assert main(["profile", "--out", str(out), "--kind", "both", "--svg",
                 "--budget-mult", "6"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
           for p in sorted((out / "profiles").iterdir())}
    assert got == PINNED_PROFILES


def test_profile_names_taus_apart_past_six_digits(tmp_path, capsys):
    # the taus agree to six digits, so {tau:g} names would give both one set of files
    out = tmp_path / "res"
    assert main(["run", "--problems", "largest-eig", "--dims", "4",
                 "--solvers", "rds-sb,rdse-sb", "--budget-mult", "5",
                 "--tau", "0.1,0.1000001", "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert "tau=0.1: " in summary and "tau=0.1000001: " in summary
    assert main(["profile", "--out", str(out), "--kind", "data"]) == 0
    assert sorted(p.name for p in (out / "profiles").iterdir()) == [
        "rds-sb__data__tau0.1.csv", "rds-sb__data__tau0.1000001.csv",
        "rdse-sb__data__tau0.1.csv", "rdse-sb__data__tau0.1000001.csv"]
    assert "wrote 4 profile curve files" in capsys.readouterr().out


@pytest.mark.parametrize("tau, named", [
    (",", "taus needs at least one value"),
    ("5", "tau must lie in (0, 1), got 5.0"),
    ("0.1,1e-1", "taus lists 0.1 twice"),
], ids=["no-taus", "out-of-range", "repeated-tau"])
def test_bad_profile_tau_fails_before_any_output(tmp_path, capsys, tau, named):
    out = tmp_path / "res"
    main(RUN_ARGS + ["--out", str(out)])
    capsys.readouterr()
    assert main(["profile", "--out", str(out), "--tau", tau]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "profiles").exists()


def _table_with_one_tau(out):
    main(RUN_ARGS + ["--tau", "0.1", "--out", str(out)])


def _table_with_a_repeated_row(out):
    main(RUN_ARGS + ["--out", str(out)])
    table = out / "results.csv"
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines + lines[1:2]))


def _profile_table_with_first_row(row):
    def make_table(out):
        out.mkdir()
        lines = PROFILE_TABLE.splitlines(keepends=True)
        (out / "results.csv").write_text("".join([lines[0], row + "\n", *lines[2:]]))
    return make_table


_BOUNDS = "line 2: needs n_p >= 1, evals_used >= 1 and 1 <= t_ps <= evals_used"


@pytest.mark.parametrize("make_table, tau, named", [
    (_table_with_one_tau, "0.1,0.5", "no rows at tau=0.5"),
    (_table_with_a_repeated_row, "0.1", "appears twice at tau=0.1"),
    (_profile_table_with_first_row("p1,4,0,a,0.1,10,1.0,0.0"), "0.1",
     "line 2: expected 9 fields, got 8"),
    (_profile_table_with_first_row("p1,4,0,a,0.1,10,1.0,0.0,30,7"), "0.1",
     "line 2: expected 9 fields, got 10"),
    (_profile_table_with_first_row("p1,4,0,a,0.1,0,1.0,0.0,30"), "0.1", _BOUNDS),
    (_profile_table_with_first_row("p1,-1,0,a,0.1,10,1.0,0.0,30"), "0.1", _BOUNDS),
    (_profile_table_with_first_row("p1,4,0,a,0.1,31,1.0,0.0,30"), "0.1", _BOUNDS),
    (_profile_table_with_first_row("p1,4,0,a,0.1,,1.0,0.0,0"), "0.1", _BOUNDS),
    (_profile_table_with_first_row("p" * 200_000 + ",4,0,a,0.1,10,1.0,0.0,30"), "0.1",
     "line 2: field larger than field limit"),
], ids=["tau-not-in-table", "repeated-run", "short-row", "long-row", "t_ps-zero",
        "n_p-negative", "t_ps-beyond-evals", "no-evals", "oversized-field"])
def test_profile_writes_nothing_unless_every_curve_computes(tmp_path, capsys,
                                                            make_table, tau, named):
    out = tmp_path / "res"
    make_table(out)
    capsys.readouterr()
    assert main(["profile", "--out", str(out), "--tau", tau, "--svg"]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "profiles").exists()


def test_profile_bucket_filter_can_empty(tmp_path, capsys):
    out = tmp_path / "res"
    main(RUN_ARGS + ["--out", str(out)])
    assert main(["profile", "--out", str(out), "--bucket", "large"]) == 1
    assert "bucket" in capsys.readouterr().err


def test_profile_rejects_budget_mult_below_one(tmp_path, capsys):
    out = tmp_path / "res"
    main(RUN_ARGS + ["--out", str(out)])
    assert main(["profile", "--out", str(out), "--budget-mult", "-5"]) == 1
    assert "budget_mult must be >= 1" in capsys.readouterr().err
    assert not (out / "profiles").exists()


def test_profile_rejects_budget_mult_beyond_float_range(tmp_path, capsys):
    out = tmp_path / "res"
    out.mkdir()
    (out / "results.csv").write_text(PROFILE_TABLE)
    assert main(["profile", "--out", str(out), "--budget-mult", "1" + "0" * 400]) == 1
    assert "kappa_max must be finite and > 0" in capsys.readouterr().err
    assert not (out / "profiles").exists()


def test_profile_missing_table(tmp_path):
    assert main(["profile", "--out", str(tmp_path / "nothing")]) == 1


def _table_and_profiles_file(out):
    out.mkdir()
    (out / "results.csv").write_text(PROFILE_TABLE)
    (out / "profiles").write_text("not a directory\n")


def _table_directory(out):
    (out / "results.csv").mkdir(parents=True)


def _curve_directory(out):
    out.mkdir()
    (out / "results.csv").write_text(PROFILE_TABLE)
    (out / "profiles" / "b__data__tau0.1.csv").mkdir(parents=True)


def _plot_directory(out):
    out.mkdir()
    (out / "results.csv").write_text(PROFILE_TABLE)
    (out / "profiles" / "data__tau0.5.svg").mkdir(parents=True)


@pytest.mark.parametrize("layout, named", [
    (_table_and_profiles_file, "profiles is not a directory"),
    (_table_directory, "no result table at"),
    (_curve_directory, "b__data__tau0.1.csv is not a file"),
    (_plot_directory, "data__tau0.5.svg is not a file"),
], ids=["profiles-is-a-file", "table-is-a-directory", "curve-is-a-directory",
        "plot-is-a-directory"])
def test_profile_rejects_unusable_layouts_before_any_curve(tmp_path, capsys, monkeypatch,
                                                          layout, named):
    out = tmp_path / "res"
    layout(out)
    before = sorted(out.rglob("*"))
    computed = []
    monkeypatch.setattr(cli.bench, "profile_curve_csv",
                        lambda curve: computed.append(curve) or "")
    assert main(["profile", "--out", str(out), "--svg"]) == 1
    assert named in capsys.readouterr().err
    assert not computed
    assert sorted(out.rglob("*")) == before


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "# comment\n"
        "problems = largest-eig\n"
        "dims = 4\n"
        "seeds = 0\n"
        "solvers = rds-sb\n"
        "budget_mult = 5\n"
        "taus = 0.1\n"
        "rds-sb.gamma1 = 0.5\n"
    )
    parsed = parse_config_file(cfg)
    assert parsed["problems"] == "largest-eig"
    assert parsed["solver_overrides"]["rds-sb"]["gamma1"] == 0.5
    out = tmp_path / "res"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(CliError):
        parse_config_file(cfg)
    cfg.write_text("rds-sb.bogus = 1\n")
    with pytest.raises(CliError):
        parse_config_file(cfg)
    cfg.write_text("rds-xb.gamma1 = 0.5\n")
    with pytest.raises(CliError, match="rds-xb"):
        parse_config_file(cfg)


PARAMS = ("gamma", "gamma1", "gamma2", "alpha0", "alpha_eps", "mu")
_DIRECT = PARAMS[:4]
# the parameters each solver reads: 27 settable <solver>.<param> slots
READS = {"rds-sb": _DIRECT, "rdse-sb": _DIRECT, "rds-dd": _DIRECT, "rdse-dd": _DIRECT,
         "rds-dd-plus": _DIRECT + ("alpha_eps",), "rdse-dd-plus": _DIRECT + ("alpha_eps",),
         "zo-rgd": ("mu",)}
UNREAD = [(solver, p) for solver in READS for p in PARAMS if p not in READS[solver]]


def test_the_solvers_registry_lists_the_parameters_each_solver_reads():
    assert {solver: tuple(params) for solver, params in DEFAULT_PARAMS.items()} == READS
    assert len(UNREAD) == 15


@pytest.mark.parametrize("solver, param", UNREAD)
def test_config_file_refuses_a_parameter_the_solver_does_not_read(tmp_path, solver, param):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# header\n{solver}.{param} = 0.5\n")
    named = rf"bad\.cfg:2: {solver}\.{param} = 0\.5: {solver} does not read '{param}'"
    with pytest.raises(CliError, match=named):
        parse_config_file(cfg)


@pytest.mark.parametrize("param", ["budget", "seed"])
def test_config_file_refuses_a_run_setting_as_a_solver_parameter(tmp_path, param):
    # budget and seed name default_config's own arguments, which the grid sets
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# header\nrds-sb.{param} = 5\n")
    named = rf"bad\.cfg:2: rds-sb\.{param} = 5: rds-sb does not read '{param}'$"
    with pytest.raises(CliError, match=named):
        parse_config_file(cfg)


@pytest.mark.parametrize("solver, param", UNREAD)
def test_default_config_refuses_a_parameter_the_solver_does_not_read(solver, param):
    with pytest.raises(ValueError, match=rf"{solver} does not read '{param}'"):
        default_config(solver, 300, 1, **{param: 0.5})


def test_config_file_refuses_a_key_set_twice(tmp_path):
    # a later line would silently undo the first
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rds-sb.gamma1 = 0.7\nrds-sb.gamma1 = 0.5\n")
    with pytest.raises(CliError, match=r"bad\.cfg:2: 'rds-sb\.gamma1' is set twice, first on line 1"):
        parse_config_file(cfg)
    # a bad first value is refused on its own line
    cfg.write_text("rds-sb.gamma1 = 5\nrds-sb.gamma1 = 0.5\n")
    with pytest.raises(CliError, match=r"bad\.cfg:1: rds-sb\.gamma1 = 5: gamma1 must be in"):
        parse_config_file(cfg)


def _line_is_valid(key, text):
    # the rules SolverConfig and check_config state, written out again
    solver, _, param = key.partition(".")
    if param not in READS.get(solver, ()):
        return False
    try:
        value = float(text)
    except ValueError:
        return False
    if not math.isfinite(value):
        return False
    if param == "gamma1":
        return 0 < value < 1
    if param == "gamma2":  # a linesearch needs gamma2 > 1 to terminate
        return value > 1 if solver.startswith("rdse") else value >= 1
    return value > 0


# keys a solver reads and numbers are listed more than once, so that they
# are drawn three times in four and files with every line valid are common
_KEYS = st.sampled_from([f"{solver}.{p}" for solver in READS for p in READS[solver]] * 2
                        + [f"{solver}.{p}" for solver, p in UNREAD]
                        + ["bogus", "rds-xb.gamma", "rds-sb.bogus", "rds-sb.budget",
                           "zo-rgd.seed"])
_VALUES = st.sampled_from(("0.5", "1.5", "2") * 5 + ("0", "-1", "nan", "inf", "abc"))


@given(st.lists(st.tuples(_KEYS, _VALUES), max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_config_grammar_exits_zero_exactly_when_every_line_is_valid(lines):
    # main never raises; it exits 0 only when every line sets, once, a
    # parameter its solver reads to a value it accepts, and 1 otherwise,
    # before the output directory is created
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "grid.cfg"), Path(tmp, "o")
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        rc = main(["run", "--problems", "largest-eig", "--dims", "2", "--budget-mult", "1",
                   "--solvers", ",".join(READS), "--config", str(cfg), "--out", str(out)])
        keys = [key for key, _ in lines]
        valid = len(set(keys)) == len(keys) and all(_line_is_valid(*line) for line in lines)
        assert rc == (0 if valid else 1)
        assert out.exists() == valid


@pytest.mark.parametrize("flags, named", [
    (["--config", "typo.cfg"], "rds-xb.gamma1"),
    (["--dims", "4,1"], "n_p must be an integer >= 2, got 1"),
    (["--seeds", "-1"], "seed must be an integer >= 0, got -1"),
    (["--problems", ""], "problems needs at least one value"),
    (["--dims", ","], "dims needs at least one value"),
    (["--seeds", ""], "seeds needs at least one value"),
    (["--solvers", ","], "solvers needs at least one value"),
    (["--tau", ","], "taus needs at least one value"),
    (["--problems", "nope"], "unknown problem 'nope'"),
    (["--solvers", "nope"], "unknown solver 'nope'"),
    (["--problems", "sparsest-vector", "--solvers", "zo-rgd"],
     "zo-rgd applies to smooth problems only"),
    (["--solvers", "rds-sb,rdse-sb,rds-sb"], "solvers lists 'rds-sb' twice"),
    (["--problems", "largest-eig,largest-eig"], "problems lists 'largest-eig' twice"),
    (["--dims", "4,4"], "dims lists 4 twice"),
    (["--seeds", "0,0"], "seeds lists 0 twice"),
    (["--tau", "0.1,1e-1"], "taus lists 0.1 twice"),
    (["--config", "missing.cfg"], "cannot read config missing.cfg"),
    (["--config", "drop.cfg"],
     "drop.cfg:1: rds-sb.drop_tol = 1e-12: rds-sb does not read 'drop_tol'"),
    (["--config", "budget.cfg"],
     "budget.cfg:1: rds-sb.budget = 5: rds-sb does not read 'budget'"),
    (["--out", "taken"], "output path taken: taken is not a directory"),
    (["--out", "taken/o"], "output path taken/o: taken is not a directory"),
    (["--out", "tf"], "output path tf/traces is not a directory"),
    (["--out", "td"], "output path td/results.csv is not a file"),
    (["--out", "tt"], "output path tt/traces/largest-eig__10__0__rds-sb.csv is not a file"),
], ids=["override-solver", "dims", "seeds", "no-problems", "no-dims", "no-seeds",
        "no-solvers", "no-taus", "unknown-problem", "unknown-solver", "zo-rgd-nonsmooth",
        "repeated-solver", "repeated-problem", "repeated-dim", "repeated-seed",
        "repeated-tau", "missing-config", "removed-drop-tol-key", "budget-key",
        "out-is-a-file", "out-under-a-file", "traces-is-a-file", "table-is-a-directory",
        "last-trace-is-a-directory"])
def test_bad_run_settings_fail_before_any_output(tmp_path, monkeypatch, capsys,
                                                 flags, named):
    monkeypatch.chdir(tmp_path)
    Path("typo.cfg").write_text("rds-xb.gamma1 = 0.5\n")
    Path("drop.cfg").write_text("rds-sb.drop_tol = 1e-12\n")
    Path("budget.cfg").write_text("rds-sb.budget = 5\n")  # the grid sets the budget
    Path("taken").write_text("")
    Path("tf").mkdir()
    Path("tf/traces").write_text("")
    Path("td/results.csv").mkdir(parents=True)
    Path("tt/traces/largest-eig__10__0__rds-sb.csv").mkdir(parents=True)
    before = sorted(Path().rglob("*"))
    ran = []
    monkeypatch.setattr(cli, "run_solver", lambda *args, **kwargs: ran.append(args))
    assert main(["run", "--problems", "largest-eig", "--solvers", "rds-sb",
                 "--budget-mult", "2", "--out", "o", *flags]) == 1
    assert named in capsys.readouterr().err
    assert not ran
    assert sorted(Path().rglob("*")) == before


def test_dimension_too_large_to_allocate_fails_before_any_output(tmp_path, monkeypatch,
                                                                capsys):
    # largest-eig at n = 1e8 asks for a 71 PiB matrix, which numpy refuses
    # before allocating anything
    monkeypatch.chdir(tmp_path)
    before = sorted(Path().rglob("*"))
    assert main(["run", "--problems", "largest-eig", "--dims", "100000000",
                 "--solvers", "rds-sb", "--out", "o"]) == 1
    assert "error: out of memory" in capsys.readouterr().err
    assert sorted(Path().rglob("*")) == before


def test_usage_error_maps_to_exit_one():
    assert main(["frobnicate"]) == 1


def test_check_command_passes(capsys):
    # desk-scale pass through the library API with reduced case counts
    from manisearch.checks import run_all

    results = run_all(seed=0, cases=10, points=5, trials=20)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_check_detects_broken_retraction():
    class BrokenSphere(Sphere):
        def _retract_many(self, x, T):
            return x + T  # skips the normalisation

    results = geometry_checks([BrokenSphere(6)], seed=0, cases=20)
    failed = [r for r in results if not r.passed]
    assert any("feasibility" in r.name for r in failed)


def test_check_detects_broken_stacked_retraction():
    # a lone retraction is a stack of one; the stacked check compares each
    # row of a poll chunk's stack with its stack of one, so a kind whose
    # one-row stack differs fails it, besides the feasibility of lone steps
    class OneRowSphere(Sphere):
        def _retract_many(self, x, T):
            return x + T if len(T) == 1 else super()._retract_many(x, T)

    results = geometry_checks([OneRowSphere(6)], seed=0, cases=20)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["geometry/feasibility sphere(6)",
                      "geometry/stacked-retraction sphere(6)"]


def test_check_detects_broken_dense_projection():
    # a lone dense direction projects a one-row stack, which no spanning
    # basis of sphere(6) and no stacked stream chunk does
    class OneRowSphere(Sphere):
        def _project_many(self, x, A):
            return A.copy() if len(A) == 1 else super()._project_many(x, A)

    results = direction_checks([OneRowSphere(6)], seed=0, points=5, trials=20)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["directions/dense-tangency sphere(6)",
                      "directions/stream-lookahead sphere(6)"]


def test_check_detects_broken_stacked_dense_projection():
    # a solver's stream chunk projects a stack of draws, which a lone
    # dense direction never does
    class StackOnlySphere(Sphere):
        def _project_many(self, x, A):
            P = super()._project_many(x, A)
            return P * 1.5 if len(A) not in (1, self.n) else P

    results = direction_checks([StackOnlySphere(6)], seed=0, points=5, trials=20)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["directions/stream-lookahead sphere(6)"]


def test_check_detects_corrupted_nested_block():
    # the corruption sits in one column of the Stiefel block's slice of
    # the flat tangent; the sphere block is left intact
    class CorruptProduct(Product):
        def _project_many(self, x, A):
            T = super()._project_many(x, A)
            T[:, 4::2] *= 2.0
            return T

    man = CorruptProduct([Sphere(3), Stiefel(4, 2)])
    results = geometry_checks([man], seed=0, cases=5)
    blockwise = [r for r in results if r.name.startswith("geometry/blockwise")]
    assert len(blockwise) == 1 and not blockwise[0].passed


def test_check_cli_exit_codes(tmp_path, monkeypatch):
    import manisearch.checks as checks_mod

    monkeypatch.setattr(
        checks_mod, "run_all",
        lambda seed=0, **kw: [CheckResult("stub", True, "ok")],
    )
    assert main(["check"]) == 0
    monkeypatch.setattr(
        checks_mod, "run_all",
        lambda seed=0, **kw: [CheckResult("stub", False, "broken")],
    )
    assert main(["check"]) == 2


def test_svg_emitter_renders_step_curves():
    from manisearch.bench import ProfileCurve

    curves = [
        ProfileCurve("s1", "data", 0.1, ((0.0, 0.0), (2.0, 0.5), (5.0, 1.0))),
        ProfileCurve("s2", "data", 0.1, ((0.0, 0.0), (3.0, 1.0))),
    ]
    svg = render_profile_svg(curves, "data profile")
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2
    assert "s1" in svg and "s2" in svg


@pytest.mark.parametrize("text, solvers, named", [
    ("rds-sb.gamma1 = 1.5\n", "rdse-sb,rds-sb", "rds-sb.gamma1"),
    ("rdse-sb.gamma1 = 1.5\n", "rds-sb", "rdse-sb.gamma1"),
    ("zo-rgd.mu = 0\n", "zo-rgd", "zo-rgd.mu"),
    ("rdse-sb.gamma2 = 1.0\n", "rds-sb,rdse-sb", "rdse-sb.gamma2"),
    ("rds-sb.alpha0 = inf\n", "rds-sb", "rds-sb.alpha0 = inf: alpha0 must be finite"),
], ids=["solver-run-second", "solver-not-run", "mu", "linesearch-gamma2", "infinite-alpha0"])
def test_bad_override_values_fail_before_any_output(tmp_path, monkeypatch, capsys,
                                                    text, solvers, named):
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text(text)
    assert main(["run", "--problems", "largest-eig", "--dims", "4",
                 "--solvers", solvers, "--budget-mult", "2",
                 "--config", "bad.cfg", "--out", "o"]) == 1
    assert named in capsys.readouterr().err
    assert not Path("o").exists()


def test_config_file_names_line_of_non_numeric_override(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# header\nrds-sb.gamma1 = abc\n")
    with pytest.raises(CliError, match=r"bad\.cfg:2: 'rds-sb\.gamma1' needs a number"):
        parse_config_file(cfg)


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    # the package runs on numpy alone: importing the CLI, building every
    # problem and running a sync-rotations cell must load no scipy module
    import manisearch

    src = str(Path(manisearch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import manisearch.cli as cli\n"
        "for name in cli.PROBLEM_NAMES:\n"
        "    for dim in (2, 10, 50):\n"
        "        cli.build_instance(name, dim, 0)\n"
        "inst = cli.build_instance('sync-rotations', 10, 0)\n"
        "cfg = cli.default_config('rds-sb', 20 * (inst.ambient_dim + 1), 0)\n"
        "rec = cli.run_cell(cli.Cell(inst, 'rds-sb', cfg))\n"
        "assert len(rec['history']) > 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
