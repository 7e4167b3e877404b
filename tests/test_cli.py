import json
import math
import random

import pytest

from pbselect.cli import main
from pbselect.dataset import NO_SOLUTION, read_csv, win_summary
from pbselect.grid import make_grid
from pbselect.metaselect import BUDGET_EXHAUSTED, NO_SOLUTION_PREDICTED, OK, SOLVER_FAILED

from gen import SOLVERS4, synthetic_corpus
from test_metaselect import fixed_model


def test_offline_pipeline_through_the_cli(tmp_path, capsys):
    archive = synthetic_corpus(tmp_path, random.Random(3), 30, make_grid(9, 100.0, 1.0))
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({"solvers": [{"id": s, "command": "true"} for s in SOLVERS4]}))
    data, model, out = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "out"
    common = ["--portfolio", str(portfolio)]
    steps = [
        ["build-dataset", "--archive", str(archive.root), "--schema", "basic", "--out", str(data)] + common,
        ["split", "--dataset", str(data), "--seed", "4", "--train-fraction", "0.5"],
        ["train", "--dataset", str(data), "--family", "knn", "--out", str(model)],
        ["evaluate", "--model", str(model), "--dataset", str(data), "--archive", str(archive.root),
         "--out-dir", str(out / "eval")],
        ["summary", "--dataset", str(data), "--out-dir", str(out / "summary")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    printed = capsys.readouterr().out
    assert "270 rows, 0 instances skipped" in printed
    assert "m_hat (overhead)" in printed

    summary = win_summary(read_csv(data))
    assert (out / "summary" / "wins_by_timestep.csv").read_text() == summary.timestep_csv()
    assert (out / "summary" / "wins_by_benchmark.csv").read_text() == summary.benchmark_csv()
    for name in ("confusion.csv", "m_hat_timesteps.csv", "breakdown.csv"):
        assert (out / "eval" / name).read_text().startswith(("true", "timestep", "policy"))


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
