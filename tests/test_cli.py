import argparse
import inspect
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adahuber import cli, dataio, tuning
from adahuber.cli import build_parser, main
from adahuber.core import Dataset, RankDeficientError
from adahuber.dataio import CsvFormatError, load_csv, save_csv
from adahuber.simlab import run_lepski_study, run_moment_checks
from adahuber.tuning import TuningGrid, cross_validate, lepski_select


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(21)
    x = rng.standard_normal(30)
    y = 2.0 * x
    lines = ["y,x1"] + [f"{float(yi)!r},{float(xi)!r}" for yi, xi in zip(y, x)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def wide_csv(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((80, 3))
    y = x @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(80)
    path = tmp_path / "wide.csv"
    save_csv(Dataset(x, y), str(path))
    return path


def subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# -------------------------------------------------------------------- loading

def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\n3,4\n5,6\n")
    data = load_csv(str(path), "y")
    assert data.n == 3 and data.d == 1
    assert data.y.tolist() == [1.0, 3.0, 5.0]
    assert data.x[:, 0].tolist() == [2.0, 4.0, 6.0]
    assert data.column_names == ["x1"]


def test_load_csv_missing_response_names_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CsvFormatError, match="available columns: a, b"):
        load_csv(str(path), "y")


def test_load_csv_bad_cell_cites_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\nabc,4\n")
    with pytest.raises(CsvFormatError, match="row 3.*'y'"):
        load_csv(str(path), "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_nonfinite_cell_cites_location(tmp_path, cell, capsys):
    path = tmp_path / "d.csv"
    path.write_text(f"y,x1\n1,2\n3,{cell}\n5,6\n")
    with pytest.raises(CsvFormatError, match="row 3, column 'x1'"):
        load_csv(str(path), "y")
    assert main(["diagnose", "--input", str(path)]) == 1
    assert "row 3, column 'x1'" in capsys.readouterr().err


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(str(tmp_path / "absent.csv"), "y")


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\n3\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(str(path), "y")


def test_round_trip_exact(tmp_path, rng):
    x = rng.standard_normal((25, 3)) * np.pi
    y = rng.standard_normal(25) / 3
    data = Dataset(x, y)
    path = tmp_path / "rt.csv"
    save_csv(data, str(path))
    back = load_csv(str(path), "y")
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)


def test_save_csv_writes_17_digit_rows(tmp_path):
    x = np.array([[-0.0, 5e-324, 1e300], [1 / 3, -2.5e-310, np.pi]])
    y = np.array([0.1, -1e-300])
    path = tmp_path / "edge.csv"
    save_csv(Dataset(x, y), str(path))
    rows = [",".join(format(float(v), ".17g") for v in (yi, *xi))
            for yi, xi in zip(y, x)]
    assert path.read_bytes() == ("y,x1,x2,x3\n" + "\n".join(rows) + "\n").encode()


# ------------------------------------------------------------------ fit paths

def test_fit_exit_zero_and_coefficient(toy_csv, tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", str(toy_csv), "--response", "y",
                 "--out", str(out)])
    assert code == 0
    table = dict(line.split(",", 1) for line in
                 out.read_text().strip().splitlines()[1:])
    assert float(table["coef.x1"]) == pytest.approx(2.0, abs=1e-6)
    assert table["converged"] == "true"


def test_fit_echoes_supplied_tau(toy_csv, tmp_path):
    out = tmp_path / "fit.jsonl"
    code = main(["fit", "--input", str(toy_csv), "--response", "y",
                 "--tau", "1.25", "--out", str(out), "--format", "jsonl"])
    assert code == 0
    records = {json.loads(l)["key"]: json.loads(l)["value"]
               for l in out.read_text().splitlines()}
    assert records["tau"] == 1.25
    assert records["params_from_data"] is False
    # absent values are null, where CSV leaves the cell empty
    assert records["varpi"] is records["matvecs"] is records["inner_total"] is None


def test_fit_max_iter_gives_exit_two(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40)
    y = 1.5 * x + rng.standard_t(1.5, 40)
    path = tmp_path / "hard.csv"
    save_csv(Dataset(x.reshape(-1, 1), y), str(path))
    code = main(["fit", "--input", str(path), "--response", "y",
                 "--tau", "0.4", "--max-iter", "1", "--tol", "1e-14",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_fit_that_keeps_its_coefficients_exits_two_with_no_descent(tmp_path):
    # columns near 1e12: the gradient test fails at coefficients that no
    # sweep changes, so the fit stops there rather than at --max-iter
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2)) * 1e12
    y = x @ (rng.standard_normal(2) / 1e12) + rng.standard_t(2.0, 40)
    data = Dataset(x, y)
    path = tmp_path / "flat.csv"
    save_csv(data, str(path))
    for tau, iterations in ((2.0 * data._ols_resid_max, "1"), (0.5, "3"),
                            (0.1, "5")):
        out = tmp_path / "o.csv"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--tau", repr(tau), "--out", str(out)]) == 2
        table = dict(line.split(",", 1) for line in
                     out.read_text().strip().splitlines()[1:])
        got = (table["stop_reason"], table["converged"], table["iterations"])
        assert got == ("no_descent", "false", iterations)


def test_fit_solver_override_keeps_the_irls_defaults(tmp_path):
    # --max-iter 500 is the IRLS default, so the tolerance must stay 1e-8
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 3))
    y = x @ np.array([1.0, -1.0, 2.0]) + rng.standard_t(1.5, 200)
    path = tmp_path / "d.csv"
    save_csv(Dataset(x, y), str(path))
    outputs = []
    for extra in ([], ["--max-iter", "500"]):
        out = tmp_path / f"fit{len(extra)}.csv"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--tau", "0.5", "--out", str(out)] + extra) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["fit", "fit-l1", "fit-truncated"])
def test_fit_reports_stop_reason_and_counters(wide_csv, tmp_path, command):
    out = tmp_path / "fit.csv"
    assert main([command, "--input", str(wide_csv), "--response", "y",
                 "--out", str(out)]) == 0
    table = dict(line.split(",", 1) for line in
                 out.read_text().strip().splitlines()[1:])
    assert table["stop_reason"] == "converged"
    if command == "fit":  # IRLS counts no products or surrogate trials
        assert table["matvecs"] == table["inner_total"] == ""
    else:
        assert int(table["matvecs"]) > int(table["inner_total"]) >= 1


def test_fit_takes_no_lambda(toy_csv):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", str(toy_csv), "--response", "y",
              "--lambda", "5"])
    assert exc.value.code == 1


def test_fit_l1_and_truncated_paths(toy_csv, tmp_path):
    assert main(["fit-l1", "--input", str(toy_csv), "--response", "y",
                 "--lambda", "0.01", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["fit-truncated", "--input", str(toy_csv), "--response", "y",
                 "--tau", "3.6", "--lambda", "0.2", "--varpi", "10",
                 "--out", str(tmp_path / "b.csv")]) == 0


@pytest.mark.parametrize("extra", [
    [], ["--varpi", "10"], ["--tau", "3.6", "--lambda", "0.2"],
    ["--lambda", "0.2", "--varpi", "10", "--s-guess", "1"],
])
def test_fit_truncated_rule_needs_two_covariates(toy_csv, tmp_path, extra,
                                                 capsys):
    # the rule runs unless --tau, --lambda and --varpi are all given
    out = tmp_path / "o.csv"
    assert main(["fit-truncated", "--input", str(toy_csv), "--response", "y",
                 "--out", str(out)] + extra) == 1
    assert "d must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_fit_truncated_refuses_s_guess_when_the_rule_does_not_run(
        wide_csv, tmp_path, capsys):
    base = ["fit-truncated", "--input", str(wide_csv), "--response", "y",
            "--s-guess", "2", "--out", str(tmp_path / "o.csv")]
    assert main(base + ["--varpi", "2"]) == 0
    assert main(base + ["--tau", "2", "--lambda", "0.1", "--varpi", "2"]) == 1
    assert "does not take --s-guess" in capsys.readouterr().err


def test_fit_with_every_parameter_given_skips_the_rule(tmp_path):
    # a constant response has no scale for the rule, but a given tau fits it
    path = tmp_path / "flat.csv"
    path.write_text("y,x1\n1,0.5\n1,-1\n1,2\n1,0.3\n")
    base = ["fit", "--input", str(path), "--response", "y", "--intercept",
            "--out", str(tmp_path / "o.csv")]
    assert main(base + ["--tau", "1"]) == 0
    assert main(base) == 1


@pytest.mark.parametrize("command", ["fit", "fit-l1", "fit-truncated"])
def test_fit_commands_take_no_seed(wide_csv, tmp_path, command):
    out = tmp_path / "o.csv"
    base = [command, "--input", str(wide_csv), "--response", "y",
            "--out", str(out)]
    assert main(base) == 0
    assert "seed" not in dict(line.split(",", 1)
                              for line in out.read_text().splitlines())
    with pytest.raises(SystemExit) as exc:
        main(base + ["--seed", "0"])
    assert exc.value.code == 1


def test_error_exit_one(tmp_path):
    code = main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--response", "y"])
    assert code == 1


def test_usage_error_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--no-such-flag"])
    assert exc.value.code == 1


def test_the_cached_parser_keeps_no_state(wide_csv, tmp_path, capsys):
    """main parses with one parser per process: each command gives the same
    exit code and bytes after the others as when it runs first."""
    sim = tmp_path / "sim.csv"
    commands = [
        ["fit", "--no-such-flag"],
        ["tune", "--input", str(wide_csv), "--response", "y", "--grid", "1,2"],
        ["tune", "--input", str(wide_csv), "--response", "y"],
        ["simulate", "--experiment", "table1", "--reps", "2", "--n", "40",
         "--d", "2", "--out", str(sim)],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = [path.read_bytes() for path in (sim, Path(f"{sim}.meta.json"))
                 if argv[0] == "simulate"]
        return code, out, err, files

    first = []
    for argv in commands:
        build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, *_ in first] == [1, 0, 0, 0]
    build_parser.cache_clear()
    assert [run(argv) for argv in commands] == first
    assert build_parser() is build_parser()


# ----------------------------------------------------------------------- tune

def test_tune_default_grid_has_three_cells(toy_csv, tmp_path):
    out = tmp_path / "tune.csv"
    noisy = np.random.default_rng(2)
    x = noisy.standard_normal(60)
    y = 2 * x + noisy.standard_normal(60)
    path = tmp_path / "noisy.csv"
    save_csv(Dataset(x.reshape(-1, 1), y), str(path))
    code = main(["tune", "--input", str(path), "--response", "y",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one cell per c_tau
    assert sum(line.split(",")[5] == "true" for line in lines[1:]) == 1


def test_tune_singleton_grid_marked_forced(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(50)
    y = x + rng.standard_normal(50)
    path = tmp_path / "d.csv"
    save_csv(Dataset(x.reshape(-1, 1), y), str(path))
    out = tmp_path / "t.csv"
    assert main(["tune", "--input", str(path), "--response", "y",
                 "--grid", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("true")  # forced column


def test_tune_rejects_a_nan_grid_constant(wide_csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--grid", "nan,1", "--out", str(out)]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_tune_rejects_repeated_grid_constants(wide_csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--grid", "1,1", "--out", str(out)]) == 1
    assert "constants must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_tune_exits_one_when_every_cell_fails(wide_csv, tmp_path, monkeypatch,
                                              capsys):
    def rank_deficient(sample, tau, cfg=None):
        raise RankDeficientError("injected")

    monkeypatch.setattr(tuning, "fit_huber", rank_deficient)
    out = tmp_path / "t.csv"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--out", str(out)]) == 1
    assert "every cross-validation cell failed" in capsys.readouterr().err
    assert not out.exists()


def test_tune_lepski_reports_grid(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((120, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(120)
    path = tmp_path / "d.csv"
    save_csv(Dataset(x, y), str(path))
    out = tmp_path / "lep.jsonl"
    assert main(["tune", "--input", str(path), "--response", "y",
                 "--method", "lepski", "--out", str(out),
                 "--format", "jsonl"]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert sum(r["selected"] for r in records) == 1
    assert all("threshold" in r and "tau" in r for r in records)


def test_tune_lepski_rejects_a_zero_K_in_one_line(wide_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "adahuber.cli", "tune", "--input", str(wide_csv),
         "--response", "y", "--method", "lepski", "--lepski-K", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "adahuber: error: K must be positive, got 0.0\n"


def test_tune_lepski_rejects_a_grid_too_fine_before_fitting(wide_csv, capsys,
                                                           monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the grid was checked")

    monkeypatch.setattr(tuning, "fit_huber", no_fit)
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--method", "lepski", "--lepski-a", "1.001"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("adahuber: error: K = 3.0 and a = 1.001 make a grid "
                   "of more than 1000 points\n")


def test_tune_lepski_rejects_an_overflowing_ratio_in_one_line(wide_csv, capsys,
                                                              monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the grid was checked")

    monkeypatch.setattr(tuning, "fit_huber", no_fit)
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--method", "lepski", "--lepski-a", "1e200"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("adahuber: error: K = 3.0 and a = 1e+200 make a grid "
                   "ratio a**2 beyond the float range\n")


def test_jsonl_writes_nonfinite_reals_as_null(wide_csv, tmp_path):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    out = tmp_path / "cv.jsonl"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--grid", "1e308,1", "--format", "jsonl",
                 "--out", str(out)]) == 0
    records = [json.loads(line, parse_constant=refuse)
               for line in out.read_text().splitlines()]
    assert [r["mean_mae"] is None for r in records] == [r["failed"] for r in records]
    assert any(r["failed"] for r in records)
    assert not all(r["failed"] for r in records)
    csv_out = tmp_path / "cv.csv"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--grid", "1e308,1", "--out", str(csv_out)]) == 0
    assert ",nan," in csv_out.read_text()


def test_low_dim_tune_leaves_c_lambda_absent(wide_csv, tmp_path):
    rows = {}
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"cv.{fmt}"
        assert main(["tune", "--input", str(wide_csv), "--response", "y",
                     "--grid", "0.5,1,2,4", "--format", fmt,
                     "--out", str(out)]) == 0
        rows[fmt] = out.read_text().splitlines()
    header, *cells = rows["csv"]
    column = header.split(",").index("c_lambda")
    assert [line.split(",")[column] for line in cells] == [""] * 4
    records = [json.loads(line) for line in rows["jsonl"]]
    assert [r["c_tau"] for r in records] == [0.5, 1.0, 2.0, 4.0]
    assert all(r["c_lambda"] is None for r in records)
    assert sum(r["selected"] for r in records) == 1


def test_write_records_jsonl_nulls_every_nonfinite_real():
    out = io.StringIO()
    dataio.write_records([{"a": math.nan, "b": -math.inf, "c": np.float64(math.inf),
                           "d": 1.5, "e": ""}], ("a", "b", "c", "d", "e"), out,
                          fmt="jsonl")
    assert json.loads(out.getvalue()) == {"a": None, "b": None, "c": None,
                                          "d": 1.5, "e": ""}


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


@pytest.mark.parametrize("method", ["cv", "lepski"])
def test_tune_defaults_are_the_library_defaults(wide_csv, tmp_path, method):
    grid = TuningGrid()
    spelled = {
        "cv": ["--grid", ",".join(map(str, grid.constants)),
               "--folds", str(grid.folds),
               "--seed", str(default_of(cross_validate, "seed"))],
        "lepski": ["--lepski-K", str(default_of(lepski_select, "K")),
                   "--lepski-a", str(default_of(lepski_select, "a"))],
    }[method]
    outputs = []
    for extra in ([], spelled):
        out = tmp_path / f"t{len(extra)}.csv"
        assert main(["tune", "--input", str(wide_csv), "--response", "y",
                     "--method", method, "--out", str(out)] + extra) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("method,extra", [
    ("lepski", ["--grid", "1"]),
    ("lepski", ["--folds", "4"]),
    ("lepski", ["--high-dim"]),
    ("lepski", ["--seed", "1"]),
    ("cv", ["--lepski-K", "3"]),
    ("cv", ["--lepski-a", "1.5"]),
])
def test_tune_rejects_flags_of_the_other_method(wide_csv, tmp_path, method,
                                                extra, capsys):
    out = tmp_path / "t.csv"
    assert main(["tune", "--input", str(wide_csv), "--response", "y",
                 "--method", method, "--out", str(out)] + extra) == 1
    assert f"--method {method} does not take {extra[0]}" in (
        capsys.readouterr().err)
    assert not out.exists()


# ------------------------------------------------------------------- simulate

# small arguments for every simulate experiment
SIMULATE_CASES = [
    ("table1", ["--reps", "2", "--n", "60"]),
    ("phase", ["--df-grid", "1.5,3.0", "--reps", "2", "--n", "80", "--d", "3"]),
    ("neff", ["--d-grid", "40", "--n-grid", "80,120", "--reps", "2"]),
    ("moments", ["--n", "2000"]),
    ("lepski", ["--n", "60", "--d", "3", "--reps", "2"]),
]


def simulate_choices():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["simulate"]._actions
                if a.dest == "experiment").choices


def test_simulate_cases_cover_every_experiment():
    assert [e for e, _ in SIMULATE_CASES] == list(simulate_choices())


@pytest.mark.parametrize("experiment,extra", SIMULATE_CASES)
def test_simulate_deterministic_across_threads(tmp_path, experiment, extra):
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"{experiment}_{threads}.csv"
        code = main(["simulate", "--experiment", experiment, "--seed", "11",
                     "--threads", threads, "--out", str(out)] + extra)
        assert code == 0
        outputs.append((out.read_bytes(),
                        (out.parent / (out.name + ".meta.json")).read_bytes()))
    assert outputs[0] == outputs[1]


def test_simulate_flags_are_runner_parameters():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["simulate"]._actions} - {
        "help", "experiment", "out", "format"}
    taken = {name for runner in cli._EXPERIMENTS.values()
             for name in inspect.signature(runner).parameters}
    assert flags and flags == taken


def test_tune_method_flags_belong_to_one_method():
    io = {"help", "input", "response", "delimiter", "intercept", "out",
          "format", "method"}
    flags = {a.dest for a in subcommands()["tune"]._actions} - io
    owned = [k for ks in cli._TUNE_METHODS.values() for k in ks]
    assert sorted(owned) == sorted(flags)
    # each flag reaches the library: a TuningGrid field or a keyword
    cv = set(cli._TUNE_METHODS["cv"]) - {"grid", "folds"}
    assert cv <= set(inspect.signature(cross_validate).parameters)
    lepski = {k.removeprefix("lepski_") for k in cli._TUNE_METHODS["lepski"]}
    assert lepski <= set(inspect.signature(lepski_select).parameters)


@pytest.mark.parametrize("experiment,extra", SIMULATE_CASES)
def test_simulate_sidecar_identifies_the_run(tmp_path, experiment, extra):
    out = tmp_path / "o.csv"
    assert main(["simulate", "--experiment", experiment, "--seed", "11",
                 "--threads", "2", "--out", str(out)] + extra) == 0
    meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
    assert meta["experiment"] == experiment and meta["seed"] == 11
    assert meta["generator"] and meta["version"] == cli.__version__
    assert "threads" not in meta


@pytest.mark.parametrize("experiment,extra", [
    ("lepski", ["--reps", "-2"]),
    ("phase", ["--reps", "0"]),
    ("neff", ["--d-grid", ""]),
])
def test_simulate_rejects_empty_experiments(tmp_path, experiment, extra,
                                            capsys):
    out = tmp_path / "o.csv"
    assert main(["simulate", "--experiment", experiment, "--threads", "1",
                 "--out", str(out)] + extra) == 1
    assert "reps >= 1 and nonempty grids" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_table1_row_count(tmp_path):
    out = tmp_path / "t1.csv"
    main(["simulate", "--experiment", "table1", "--reps", "2", "--n", "50",
          "--seed", "3", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    data_rows = [l for l in lines if l.startswith("data")]
    assert len(data_rows) == 2 * 2 * 3
    meta = json.loads((tmp_path / "t1.csv.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["experiment"] == "table1"
    assert "wall_time_s" not in meta


@pytest.mark.parametrize("n", ["80", "120"])
def test_simulate_phase_sidecar_echoes_configuration(tmp_path, n):
    out = tmp_path / "ph.csv"
    assert main(["simulate", "--experiment", "phase", "--df-grid", "1.5",
                 "--reps", "1", "--n", n, "--d", "3", "--seed", "3",
                 "--threads", "2", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "ph.csv.meta.json").read_text())
    assert meta["experiment"] == "phase"
    assert meta["n"] == int(n) and meta["d"] == 3 and meta["reps"] == 1
    assert meta["df_grid"] == [1.5] and meta["seed"] == 3
    # defaults the command line did not pass are echoed too
    assert meta["high_dim"] is False and "c_tau" not in meta
    assert "threads" not in meta


@pytest.mark.parametrize("experiment,extra", [
    ("neff", ["--d-grid", "40", "--n-grid", "80", "--reps", "1", "--n", "50"]),
    ("table1", ["--reps", "1", "--n", "30", "--high-dim"]),
])
def test_simulate_rejects_flags_the_experiment_ignores(tmp_path, experiment,
                                                       extra, capsys):
    out = tmp_path / "o.csv"
    code = main(["simulate", "--experiment", experiment, "--threads", "1",
                 "--out", str(out)] + extra)
    assert code == 1
    assert "does not take" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads,env", [("0", None), ("-3", None),
                                         (None, "0")])
def test_simulate_rejects_worker_counts_below_one(tmp_path, monkeypatch,
                                                  threads, env, capsys):
    if env is not None:
        monkeypatch.setenv("ADAHUBER_THREADS", env)
    out = tmp_path / "o.csv"
    args = ["simulate", "--experiment", "lepski", "--reps", "1", "--n", "60",
            "--out", str(out)]
    assert main(args + (["--threads", threads] if threads else [])) == 1
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,extra,direct", [
    ("moments", ["--n", "2000"], lambda: run_moment_checks(n=2000, seed=7)),
    ("lepski", ["--n", "60", "--d", "3", "--reps", "2"],
     lambda: run_lepski_study(n=60, d=3, reps=2, seed=7)),
])
def test_simulate_rows_equal_direct_simlab_calls(tmp_path, experiment, extra,
                                                 direct):
    out = tmp_path / "o.jsonl"
    assert main(["simulate", "--experiment", experiment, "--seed", "7",
                 "--format", "jsonl", "--out", str(out)] + extra) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records == direct()


# ------------------------------------------------------------------- diagnose

def test_diagnose_flags(tmp_path):
    rng = np.random.default_rng(31)
    n = 30_000
    # pick a draw whose sample kurtosis sits below 3 so the normal column
    # is reported unflagged
    normal = rng.standard_normal(n)
    while not np.mean((normal - normal.mean()) ** 4) / np.var(normal) ** 2 < 3.0:
        normal = rng.standard_normal(n)
    heavy = rng.standard_t(5.0, n)
    const = np.zeros(n)
    path = tmp_path / "cols.csv"
    with open(path, "w") as fh:
        fh.write("gauss,t5,flat\n")
        for i in range(n):
            fh.write(f"{float(normal[i])!r},{float(heavy[i])!r},{float(const[i])!r}\n")
    out = tmp_path / "diag.jsonl"
    assert main(["diagnose", "--input", str(path), "--out", str(out),
                 "--format", "jsonl"]) == 0
    recs = {r["column"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert recs["gauss"]["heavy"] is False
    assert recs["t5"]["heavy"] is True
    assert recs["flat"]["degenerate"] is True
    assert recs["flat"]["kurtosis"] is None  # absent: null, not ""
    csv_out = tmp_path / "diag.csv"
    assert main(["diagnose", "--input", str(path), "--out", str(csv_out)]) == 0
    assert csv_out.read_text().splitlines()[-1] == "flat,,true,false,false"


@pytest.mark.parametrize("text,columns", [
    ('"g","h"\n1,5\n2,4\n3,9\n7,1\n8,2\n', ["g", "h"]),
    ("only\n1\n2\n3\n9\n", ["only"]),
])
def test_diagnose_reads_any_headed_csv(tmp_path, text, columns):
    path = tmp_path / "d.csv"
    path.write_text(text)
    out = tmp_path / "diag.jsonl"
    assert main(["diagnose", "--input", str(path), "--out", str(out),
                 "--format", "jsonl"]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["column"] for r in recs] == columns
    assert not any(r["degenerate"] for r in recs)


def test_diagnose_puts_the_response_first(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,5,0\n2,4,1\n3,9,0\n7,1,1\n")
    out = tmp_path / "diag.csv"
    assert main(["diagnose", "--input", str(path), "--response", "b",
                 "--out", str(out)]) == 0
    column = [line.split(",")[0] for line in out.read_text().splitlines()]
    assert column == ["column", "b", "a", "c"]


# ------------------------------------------------------------------ packaging

def test_readme_names_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    options = {opt for parser in subcommands().values()
               for action in parser._actions for opt in action.option_strings}
    missing = sorted(opt for opt in options - {"-h", "--help", "--version"}
                     if not re.search(re.escape(opt) + r"(?![\w-])", readme))
    assert not missing


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "adahuber.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
