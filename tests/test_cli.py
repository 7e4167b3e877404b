import csv
import io
import json
import logging
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pbselect.cli import main
from pbselect.dataset import NO_SOLUTION, read_csv, win_tables, write_csv
from pbselect.eval import evaluate_selector
from pbselect.grid import make_grid
from pbselect.learners import TrainedModel
from pbselect.metaselect import BUDGET_EXHAUSTED, NO_SOLUTION_PREDICTED, OK, SOLVER_FAILED
from pbselect.runner import RunArchive

from gen import SOLVERS4, synthetic_corpus, synthetic_instance_text
from test_metaselect import fixed_model


def _cells(table):
    """A ``(header, rows)`` table as the strings its CSV holds."""
    header, rows = table
    return [list(header)] + [["" if cell is None else str(cell) for cell in row] for row in rows]


def _read_back(text):
    """The cells of CSV ``text``, read as ``csv.reader`` reads a file opened with ``newline=""``."""
    return list(csv.reader(io.StringIO(text, newline="")))


def _offline_pipeline(tmp_path, solvers=SOLVERS4, **corpus):
    """Build, split, train (knn), evaluate and summarize a 30-instance
    corpus through ``main``; returns its archive, dataset path, model path
    and output directory."""
    grid = make_grid(9, 100.0, 1.0)
    archive = synthetic_corpus(tmp_path, random.Random(3), 30, grid, solvers=solvers, **corpus)
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({"solvers": [{"id": s, "command": "true"} for s in solvers]}))
    data, model, out = tmp_path / "data.csv", tmp_path / "model.zip", tmp_path / "out"
    steps = [
        ["build-dataset", "--archive", str(archive.root), "--schema", "basic", "--out", str(data),
         "--portfolio", str(portfolio)],
        ["split", "--dataset", str(data), "--seed", "4", "--train-fraction", "0.5"],
        ["train", "--dataset", str(data), "--family", "knn", "--out", str(model)],
        ["evaluate", "--model", str(model), "--dataset", str(data), "--archive", str(archive.root),
         "--out-dir", str(out / "eval")],
        ["summary", "--dataset", str(data), "--out-dir", str(out / "summary")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return archive, data, model, out


TIMED = ("m_ms_overhead", "m_hat_overhead")  # summary rows that one timed prediction per instance moves


def _untimed(stem, rows):
    """The cells of an ``evaluate`` table but those a timed prediction
    moves, which must be present: the m_hat_overhead column of
    ``m_hat_timesteps`` and the values of the TIMED ``summary`` rows."""
    if stem == "m_hat_timesteps":
        assert {len(row) for row in rows} == {3}
        return [row[:2] for row in rows]
    if stem == "summary":
        assert [row[0] for row in rows if row[0] in TIMED and len(row) == 2 and row[1]] == list(TIMED)
        return [row[:1] if row[0] in TIMED else row for row in rows]
    return rows


def _check_report_files(archive, data, model, out):
    """Every CSV file of ``evaluate`` and ``summary`` reads back as its
    table, but for the timed cells; returns ``evaluate``'s tables."""
    ds = read_csv(data)
    for stem, table in win_tables(ds).items():
        assert _read_back((out / "summary" / f"{stem}.csv").read_bytes().decode()) == _cells(table), stem
    tables = evaluate_selector(TrainedModel.load(model), ds, archive).tables()
    assert sorted(p.name for p in (out / "eval").iterdir()) == sorted(f"{stem}.csv" for stem in tables)
    for stem, table in tables.items():
        got = _read_back((out / "eval" / f"{stem}.csv").read_bytes().decode())
        assert _untimed(stem, got) == _untimed(stem, _cells(table)), stem
    return tables


def test_offline_pipeline_through_the_cli(tmp_path, capsys):
    archive, data, model, out = _offline_pipeline(tmp_path)
    printed = capsys.readouterr().out
    assert "270 rows, 0 instances skipped" in printed
    tables = _check_report_files(archive, data, model, out)
    assert set(tables) == {"summary", "confusion", "m_hat_timesteps", "breakdown"}
    # evaluate prints its summary table and then its breakdown table
    summary, breakdown = _cells(tables["summary"]), _cells(tables["breakdown"])
    lines = printed.splitlines(keepends=True)
    start = lines.index("metric,value\n")
    got = _read_back("".join(lines[start:start + len(summary) + len(breakdown)]))
    assert _untimed("summary", got[:len(summary)]) == _untimed("summary", summary)
    assert got[len(summary):] == breakdown
    assert (out / "summary" / "wins_by_benchmark.csv").read_text().startswith(
        "benchmark,s0,s1,s2,s3,NO_SOLUTION\nbench0,"
    )
    assert (out / "eval" / "breakdown.csv").read_text().startswith("sbs\\selector,best,non_best,none\nbest,")


ODD = (",", '"', "\n", "\r")  # each breaks a CSV line written without quoting


def test_tables_quote_commas_quotes_and_line_breaks(tmp_path, capsys):
    solvers = [f"s{c}{k}" for k, c in enumerate(ODD)]
    archive, data, model, out = _offline_pipeline(tmp_path, solvers, benchmarks=("b,0", 'b"1'))
    # the run archive records no line break in a benchmark id, a dataset can hold one
    ds = read_csv(data)
    ds.benchmark_ids = [b if i % 3 else f"b{ODD[2 + i % 2]}{2 + i % 2}" for i, b in enumerate(ds.benchmark_ids)]
    assert set(ds.benchmark_ids) == {"b,0", 'b"1', "b\n2", "b\r3"}
    write_csv(ds, data)
    assert main(["summary", "--dataset", str(data), "--out-dir", str(out / "summary")]) == 0
    _check_report_files(archive, data, model, out)

    paths = []
    for k, c in enumerate(ODD):
        paths.append(tmp_path / f"dir{c}{k}" / f"i{c}{k}.opb")
        paths[-1].parent.mkdir()
        paths[-1].write_text(synthetic_instance_text(5 + k, 7))
    capsys.readouterr()
    assert main(["features", *map(str, paths), "--schema", "basic"]) == 0
    assert _read_back(capsys.readouterr().out) == [["instance", "n_constraints", "n_variables"]] + [
        [str(path), f"{5.0 + k}", "7.0"] for k, path in enumerate(paths)
    ]


def test_run_portfolio_through_the_cli(tmp_path, opb_file, capsys, caplog):
    other = opb_file.with_name("other.opb")
    other.write_text(opb_file.read_text())
    portfolio = tmp_path / "portfolio.json"
    solvers = [{"id": sid, "command": ["sh", "-c", f"echo o {value}"]} for sid, value in (("a", 5), ("b", 3))]
    portfolio.write_text(json.dumps({"solvers": solvers}))
    argv = ["run-portfolio", str(opb_file.parent), "--grid-count", "3", "--horizon", "2", "--t-min", "0.5",
            "--portfolio", str(portfolio)]
    assert main(argv + ["--archive", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().out == f"archive {tmp_path / 'ok'}: 2 instances recorded\n"
    archive = RunArchive(tmp_path / "ok")
    assert all(archive.has(iid, sid) for iid, _, _ in archive.instances() for sid in "ab")
    assert archive.failures() == []

    solvers[1] = {"id": "ghost", "command": ["/nonexistent/solver", "{instance}"]}
    portfolio.write_text(json.dumps({"solvers": solvers}))
    with caplog.at_level(logging.ERROR):
        assert main(argv + ["--archive", str(tmp_path / "failed")]) == 1
    assert capsys.readouterr().out == f"archive {tmp_path / 'failed'}: 2 instances recorded\n"
    archive = RunArchive(tmp_path / "failed")
    failures = archive.failures()
    assert [(iid, sid) for iid, sid, _ in failures] == [(iid, "ghost") for iid, _, _ in archive.instances()]
    assert all(archive.has(iid, "a") for iid, _, _ in archive.instances())
    # one ERROR line per failed pair
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert sorted(errors) == sorted(f"failed pair ({iid}, ghost): {message}" for iid, _, message in failures)


def test_build_dataset_reports_a_damaged_trajectory_file(tmp_path, opb_file, capsys):
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({"solvers": [{"id": "a", "command": ["sh", "-c", "echo o 5"]}]}))
    assert main(["run-portfolio", str(opb_file), "--grid-count", "3", "--horizon", "2", "--t-min", "0.5",
                 "--portfolio", str(portfolio), "--archive", str(tmp_path / "arch")]) == 0
    archive = RunArchive(tmp_path / "arch")
    [(iid, _, _)] = archive.instances()
    archive._pair_path(iid, "a").write_text("")
    capsys.readouterr()
    argv = ["build-dataset", "--archive", str(archive.root), "--portfolio", str(portfolio),
            "--out", str(tmp_path / "data.csv")]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "detail": f"{iid}/a: trajectory file does not start with a metadata object"
    }


def test_parse_prints_canonical_text_or_checks_only(opb_file, capsys):
    assert main(["parse", str(opb_file)]) == 0
    assert capsys.readouterr().out == "* #variable= 2 #constraint= 1\nmin: +1 x1 -2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n"
    assert main(["parse", "--check", str(opb_file)]) == 0
    assert capsys.readouterr().out == ""


def test_parse_check_reports_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.opb"
    bad.write_text("min: +1 y1 ;\n")
    assert main(["parse", "--check", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "opb-parse", "detail": "line 1, column 9: expected literal, got 'y1'"
    }


def test_features_csv(opb_file, capsys):
    assert main(["features", str(opb_file), "--schema", "basic"]) == 0
    assert capsys.readouterr().out == f"instance,n_constraints,n_variables\n{opb_file},1.0,2.0\n"


def _solve_argv(tmp_path, opb_file, labels, script, budget="10"):
    model, portfolio = tmp_path / "model.zip", tmp_path / "portfolio.json"
    fixed_model(labels).save(model)
    portfolio.write_text(json.dumps({"solvers": [
        {"id": "a", "command": ["sh", "-c", script]},
        {"id": "b", "command": ["true"]},
    ]}))
    return ["solve", "--instance", str(opb_file), "--budget", budget,
            "--model", str(model), "--portfolio", str(portfolio)]


@pytest.mark.parametrize("labels,script,budget,code,condition,objective", [
    (["a"], "echo o 3", "10", 0, OK, 3),
    ([NO_SOLUTION], "echo o 3", "10", 3, NO_SOLUTION_PREDICTED, None),
    (["a"], "echo o 3", "1e-9", 4, BUDGET_EXHAUSTED, None),
    (["a"], "exit 3", "10", 5, SOLVER_FAILED, None),
    (["a"], "true", "10", 5, OK, None),
])
def test_solve_prints_outcome_and_exit_code(
    tmp_path, opb_file, capsys, labels, script, budget, code, condition, objective
):
    assert main(_solve_argv(tmp_path, opb_file, labels, script, budget)) == code
    record = json.loads(capsys.readouterr().out)
    assert (record["exit_condition"], record["objective"]) == (condition, objective)


def test_interrupted_solve_ends_the_solver_process_group(tmp_path, opb_file):
    # the solver runs in its own session, so the terminal's Ctrl-C reaches
    # pbselect alone: pbselect must end the solver's group on its way out
    pid_file = tmp_path / "solver.pid"
    script = f"echo $$ > {pid_file}.tmp && mv {pid_file}.tmp {pid_file}; exec sleep 30"
    argv = _solve_argv(tmp_path, opb_file, ["a"], script, budget="60")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "pbselect.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    pgid = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "the solver never started"
            time.sleep(0.01)
        pgid = int(pid_file.read_text())  # its pid: the solver leads its own group
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert b"KeyboardInterrupt" in err
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if pgid is not None:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_solve_rejects_non_finite_budget(tmp_path, opb_file, capsys, budget):
    marker = tmp_path / "launched"
    assert main(_solve_argv(tmp_path, opb_file, ["a"], f"touch {marker}", str(budget))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "detail": f"budget must be positive and finite, not {budget}"
    }
    assert not marker.exists()
