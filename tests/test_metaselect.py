import json

import numpy as np
import pytest

from pbselect.dataset import NO_SOLUTION
from pbselect.grid import make_grid
from pbselect.learners import TrainedModel
from pbselect.learners.knn import KnnModel
from pbselect.metaselect import (
    BUDGET_EXHAUSTED,
    NO_SOLUTION_FALLBACK,
    NO_SOLUTION_PREDICTED,
    OK,
    SOLVER_FAILED,
    solve,
)
from pbselect.runner import PortfolioConfig, SolverAdapter

VOCAB = ["a", "b", NO_SOLUTION]


def fixed_model(labels, vocabulary=VOCAB):
    """A KNN model whose k is its training size: every query gets the
    labels' shares as probabilities, the first most frequent as its label."""
    n, width = len(labels), 3  # the basic schema's two features plus the timestep
    knn = KnnModel(
        X=np.zeros((n, width)),
        y=np.array([vocabulary.index(label) for label in labels]),
        k=n,
        n_classes=len(vocabulary),
        mean=np.zeros(width),
        std=np.ones(width),
    )
    return TrainedModel(
        family="knn",
        schema="basic",
        encoding="index",
        vocabulary=list(vocabulary),
        params={"grid": make_grid(5, 100.0, 0.01).params()},
        seed=0,
        model=knn,
    )


def portfolio(**scripts):
    """One ``sh -c`` adapter per keyword, in keyword order."""
    return PortfolioConfig([SolverAdapter(sid, ("sh", "-c", s)) for sid, s in scripts.items()])


def report(outcome):
    """The outcome's JSON record without the measured preparation time."""
    record = json.loads(outcome.to_json())
    assert record.pop("preparation_ms") >= 0.0
    return record


def test_ok_reports_last_incumbent(opb_file):
    p = portfolio(a="echo o 12; echo c chatter; echo o 7", b="echo o 1")
    outcome = solve(opb_file, 10.0, fixed_model(["a", "a", "b"]), p)
    record = report(outcome)
    assert 0.0 <= record.pop("incumbent_seconds") < 10.0
    assert record == {
        "chosen_solver": "a",
        "predicted_label": "a",
        "objective": 7,
        "exit_condition": OK,
        "assignment_path": None,
    }
    assert outcome.preparation_seconds < 10.0


def test_assignment_file_gets_v_lines(opb_file, tmp_path):
    out = tmp_path / "assignment.txt"
    p = portfolio(a="echo o 4; echo v x1 -x2; echo v x3", b="true")
    outcome = solve(opb_file, 10.0, fixed_model(["a"]), p, assignment_path=out)
    record = report(outcome)
    record.pop("incumbent_seconds")
    assert record == {
        "chosen_solver": "a",
        "predicted_label": "a",
        "objective": 4,
        "exit_condition": OK,
        "assignment_path": str(out),
    }
    assert out.read_text() == "x1 -x2 x3\n"


def test_no_v_lines_write_no_assignment_file(opb_file, tmp_path):
    out = tmp_path / "assignment.txt"
    p = portfolio(a="echo o 4", b="true")
    outcome = solve(opb_file, 10.0, fixed_model(["a"]), p, assignment_path=out)
    assert outcome.assignment_path is None
    assert not out.exists()


def test_clean_exit_without_incumbent_is_ok(opb_file):
    outcome = solve(opb_file, 10.0, fixed_model(["b"]), portfolio(a="echo o 1", b="true"))
    assert report(outcome) == {
        "chosen_solver": "b",
        "predicted_label": "b",
        "objective": None,
        "incumbent_seconds": None,
        "exit_condition": OK,
        "assignment_path": None,
    }


def test_no_solution_report_launches_nothing(opb_file, tmp_path):
    marker = tmp_path / "launched"
    p = portfolio(a=f"touch {marker}", b=f"touch {marker}")
    outcome = solve(opb_file, 10.0, fixed_model([NO_SOLUTION, NO_SOLUTION, "a"]), p)
    assert report(outcome) == {
        "chosen_solver": None,
        "predicted_label": NO_SOLUTION,
        "objective": None,
        "incumbent_seconds": None,
        "exit_condition": NO_SOLUTION_PREDICTED,
        "assignment_path": None,
    }
    assert not marker.exists()


def test_no_solution_fallback_runs_most_probable_solver(opb_file):
    p = portfolio(a="echo o 10", b="echo o 20")
    model = fixed_model([NO_SOLUTION, NO_SOLUTION, NO_SOLUTION, "b", "b", "a"])
    outcome = solve(opb_file, 10.0, model, p, on_no_solution=NO_SOLUTION_FALLBACK)
    record = report(outcome)
    record.pop("incumbent_seconds")
    assert record == {
        "chosen_solver": "b",
        "predicted_label": NO_SOLUTION,
        "objective": 20,
        "exit_condition": OK,
        "assignment_path": None,
    }


def test_no_solution_fallback_tie_takes_first_portfolio_solver(opb_file):
    # the portfolio declares b before a; the vocabulary lists a first
    p = portfolio(b="echo o 20", a="echo o 10")
    model = fixed_model([NO_SOLUTION, NO_SOLUTION, NO_SOLUTION, "a", "b"])
    outcome = solve(opb_file, 10.0, model, p, on_no_solution=NO_SOLUTION_FALLBACK)
    assert (outcome.chosen_solver, outcome.predicted_label, outcome.objective) == ("b", NO_SOLUTION, 20)


def test_no_solution_fallback_skips_portfolio_solvers_the_model_lacks(opb_file):
    # the portfolio declares c, which the model was not trained on
    p = portfolio(a="echo o 10", b="echo o 20", c="echo o 30")
    model = fixed_model([NO_SOLUTION, NO_SOLUTION, "b"])
    outcome = solve(opb_file, 10.0, model, p, on_no_solution=NO_SOLUTION_FALLBACK)
    assert (outcome.chosen_solver, outcome.predicted_label, outcome.objective) == ("b", NO_SOLUTION, 20)


def test_budget_exhausted_by_preparation(opb_file, tmp_path, caplog):
    marker = tmp_path / "launched"
    p = portfolio(a=f"touch {marker}", b=f"touch {marker}")
    with caplog.at_level("WARNING"):
        outcome = solve(opb_file, 1e-9, fixed_model(["a"]), p)
    assert report(outcome) == {
        "chosen_solver": None,
        "predicted_label": "a",
        "objective": None,
        "incumbent_seconds": None,
        "exit_condition": BUDGET_EXHAUSTED,
        "assignment_path": None,
    }
    assert outcome.preparation_seconds > 1e-9
    assert not marker.exists()
    assert any("below the first grid point" in r.message for r in caplog.records)


def test_budget_exhausted_before_no_solution_report(opb_file):
    outcome = solve(opb_file, 1e-9, fixed_model([NO_SOLUTION]), portfolio(a="true", b="true"))
    assert (outcome.exit_condition, outcome.predicted_label) == (BUDGET_EXHAUSTED, NO_SOLUTION)


def test_missing_executable_is_solver_failed(opb_file, tmp_path):
    out = tmp_path / "assignment.txt"
    p = PortfolioConfig([
        SolverAdapter("a", ("/nonexistent/solver", "{instance}")),
        SolverAdapter("b", ("true",)),
    ])
    outcome = solve(opb_file, 10.0, fixed_model(["a"]), p, assignment_path=out)
    assert report(outcome) == {
        "chosen_solver": "a",
        "predicted_label": "a",
        "objective": None,
        "incumbent_seconds": None,
        "exit_condition": SOLVER_FAILED,
        "assignment_path": None,
    }
    assert not out.exists()


def test_crash_without_incumbent_is_solver_failed(opb_file):
    outcome = solve(opb_file, 10.0, fixed_model(["a"]), portfolio(a="echo c hi; exit 3", b="true"))
    assert report(outcome) == {
        "chosen_solver": "a",
        "predicted_label": "a",
        "objective": None,
        "incumbent_seconds": None,
        "exit_condition": SOLVER_FAILED,
        "assignment_path": None,
    }


def test_crash_after_incumbent_is_ok(opb_file):
    outcome = solve(opb_file, 10.0, fixed_model(["a"]), portfolio(a="echo o 5; exit 3", b="true"))
    record = report(outcome)
    record.pop("incumbent_seconds")
    assert record == {
        "chosen_solver": "a",
        "predicted_label": "a",
        "objective": 5,
        "exit_condition": OK,
        "assignment_path": None,
    }


def test_vocabulary_solver_missing_from_portfolio(opb_file, tmp_path):
    marker = tmp_path / "launched"
    model = fixed_model(["a"], vocabulary=["a", "c", NO_SOLUTION])
    with pytest.raises(ValueError, match="'c' missing from portfolio"):
        solve(opb_file, 10.0, model, portfolio(a=f"touch {marker}", b="true"))
    assert not marker.exists()


@pytest.mark.parametrize("budget", [0.0, -1.0])
def test_budget_must_be_positive(opb_file, budget):
    with pytest.raises(ValueError, match="budget"):
        solve(opb_file, budget, fixed_model(["a"]), portfolio(a="true", b="true"))


def test_model_and_portfolio_load_from_files(opb_file, tmp_path):
    model_path, portfolio_path = tmp_path / "model.zip", tmp_path / "portfolio.json"
    fixed_model(["b"]).save(model_path)
    portfolio_path.write_text(json.dumps({"solvers": [
        {"id": "a", "command": ["sh", "-c", "echo o 1"]},
        {"id": "b", "command": ["sh", "-c", "echo o 2"]},
    ]}))
    outcome = solve(opb_file, 10.0, model_path, portfolio_path)
    assert (outcome.chosen_solver, outcome.objective, outcome.exit_condition) == ("b", 2, OK)
