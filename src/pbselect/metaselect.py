"""The runtime meta-solver: pick a solver for a budget, then run it.

The budget maps to the largest grid point at or below it (budgets smaller
than the first grid point clamp to index 0 with a warning).  Preparation
is deducted from the budget before the chosen solver is launched.  It is
the overhead the evaluator charges (see :mod:`pbselect.eval`): parsing
the instance, computing its features and predicting one row, but not
loading the model.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from .dataset import NO_SOLUTION
from .features import encode_timestep, extract
from .grid import make_grid
from .learners import TrainedModel
from .opb import Instance, parse_opb_file
from .runner import AdapterError, PortfolioConfig, parse_events, run_adapter

logger = logging.getLogger(__name__)

NO_SOLUTION_REPORT = "report"
NO_SOLUTION_FALLBACK = "run-fallback"

OK = "ok"
NO_SOLUTION_PREDICTED = "no-solution-predicted"
BUDGET_EXHAUSTED = "budget-exhausted"
SOLVER_FAILED = "solver-failed"


@dataclass
class Choice:
    label: str
    probabilities: dict[str, float]
    timestep_index: int
    preparation_seconds: float

    def fallback_solver(self, solver_ids: list[str]) -> str:
        best = solver_ids[0]
        for sid in solver_ids[1:]:
            if self.probabilities[sid] > self.probabilities[best]:
                best = sid
        return best


def choose_solver(model: TrainedModel, inst: Instance, budget: float) -> Choice:
    """Deterministic selection step shared by solve() and the evaluator."""
    t0 = time.perf_counter()
    grid = make_grid(**model.params["grid"])
    index = grid.floor_index(budget)
    if index is None:
        logger.warning(
            "budget %.3fs is below the first grid point %.3fs; using timestep 0",
            budget,
            grid.points[0],
        )
        index = 0
    row = extract(inst, model.schema).values + (encode_timestep(index, grid, model.encoding),)
    label, probs = model.predict_values(row)
    return Choice(
        label=label,
        probabilities=probs,
        timestep_index=index,
        preparation_seconds=time.perf_counter() - t0,
    )


@dataclass
class SolveOutcome:
    chosen_solver: str | None
    predicted_label: str
    objective: int | None
    incumbent_seconds: float | None
    preparation_seconds: float
    exit_condition: str
    assignment_path: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "chosen_solver": self.chosen_solver,
                "predicted_label": self.predicted_label,
                "objective": self.objective,
                "incumbent_seconds": self.incumbent_seconds,
                "preparation_ms": round(self.preparation_seconds * 1000.0, 3),
                "exit_condition": self.exit_condition,
                "assignment_path": self.assignment_path,
            }
        )


def solve(
    instance_path: str | Path,
    budget: float,
    model: TrainedModel | str | Path,
    portfolio: PortfolioConfig | str | Path,
    on_no_solution: str = NO_SOLUTION_REPORT,
    assignment_path: str | Path | None = None,
) -> SolveOutcome:
    """Predict the best solver for (instance, budget) and run it.

    Returns the best incumbent found in what remains of the budget after
    preparation.  A NO_SOLUTION prediction either reports and stops or, with
    ``on_no_solution="run-fallback"``, runs the most probable real solver.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not isinstance(model, TrainedModel):
        model = TrainedModel.load(model)
    if not isinstance(portfolio, PortfolioConfig):
        portfolio = PortfolioConfig.load(portfolio)
    for sid in model.vocabulary:
        if sid != NO_SOLUTION and sid not in portfolio.solver_ids:
            raise ValueError(f"model vocabulary solver {sid!r} missing from portfolio")

    t0 = time.perf_counter()
    inst = parse_opb_file(instance_path)
    choice = choose_solver(model, inst, budget)
    preparation = time.perf_counter() - t0
    remaining = budget - preparation
    if remaining <= 0:
        return SolveOutcome(
            chosen_solver=None,
            predicted_label=choice.label,
            objective=None,
            incumbent_seconds=None,
            preparation_seconds=preparation,
            exit_condition=BUDGET_EXHAUSTED,
        )

    chosen = choice.label
    if chosen == NO_SOLUTION:
        if on_no_solution == NO_SOLUTION_REPORT:
            return SolveOutcome(
                chosen_solver=None,
                predicted_label=NO_SOLUTION,
                objective=None,
                incumbent_seconds=None,
                preparation_seconds=preparation,
                exit_condition=NO_SOLUTION_PREDICTED,
            )
        chosen = choice.fallback_solver(portfolio.solver_ids)
        logger.info("NO_SOLUTION predicted; falling back to %s", chosen)

    adapter = portfolio.by_id(chosen)
    try:
        lines, status = run_adapter(adapter, instance_path, remaining)
    except AdapterError as exc:
        logger.error("%s", exc)
        return SolveOutcome(
            chosen_solver=chosen,
            predicted_label=choice.label,
            objective=None,
            incumbent_seconds=None,
            preparation_seconds=preparation,
            exit_condition=SOLVER_FAILED,
        )
    events = parse_events(lines, adapter.parse_mode, remaining)

    out_path = None
    if assignment_path is not None:
        payload = [line[2:] for _, line in lines if line.startswith("v ")]
        if payload:
            Path(assignment_path).write_text(" ".join(payload) + "\n")
            out_path = str(assignment_path)

    if not events:
        condition = SOLVER_FAILED if status == "crashed" else OK
        return SolveOutcome(
            chosen_solver=chosen,
            predicted_label=choice.label,
            objective=None,
            incumbent_seconds=None,
            preparation_seconds=preparation,
            exit_condition=condition,
            assignment_path=out_path,
        )
    best_t, best_v = events[-1]
    return SolveOutcome(
        chosen_solver=chosen,
        predicted_label=choice.label,
        objective=best_v,
        incumbent_seconds=best_t,
        preparation_seconds=preparation,
        exit_condition=OK,
        assignment_path=out_path,
    )
