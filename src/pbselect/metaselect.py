"""The runtime meta-solver: pick a solver for a budget, then run it.

The budget maps to the largest grid point at or below it (budgets smaller
than the first grid point clamp to index 0 with a warning).  One clock
times the preparation: it starts before the instance is parsed and stops
after one predict, so it covers parsing, computing the features and
predicting one row, but not loading the model.  This is the overhead the
evaluator charges (see :mod:`pbselect.eval`); it is deducted from the
budget before the chosen solver is launched and reported as
``preparation_ms``.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .dataset import NO_SOLUTION
from .features import encode_timestep, extract
from .grid import make_grid
from .learners import TrainedModel
from .opb import Instance, parse_opb_file
from .runner import AdapterError, PortfolioConfig, run_adapter

logger = logging.getLogger(__name__)

NO_SOLUTION_REPORT = "report"
NO_SOLUTION_FALLBACK = "run-fallback"

OK = "ok"
NO_SOLUTION_PREDICTED = "no-solution-predicted"
BUDGET_EXHAUSTED = "budget-exhausted"
SOLVER_FAILED = "solver-failed"


def choose_solver(
    model: TrainedModel, inst: Instance, budget: float
) -> tuple[str, dict[str, float]]:
    """The model's label and class probabilities for ``inst`` at the grid
    timestep of ``budget``."""
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
    return model.predict_values(row)


@dataclass
class SolveOutcome:
    predicted_label: str
    preparation_seconds: float
    exit_condition: str
    chosen_solver: str | None = None
    objective: int | None = None
    incumbent_seconds: float | None = None
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
    ``on_no_solution="run-fallback"``, runs the most probable portfolio
    solver the model was trained on, the first in portfolio order on a tie.
    Raises ValueError unless the budget is positive and finite.
    """
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, not {budget}")
    if not isinstance(model, TrainedModel):
        model = TrainedModel.load(model)
    if not isinstance(portfolio, PortfolioConfig):
        portfolio = PortfolioConfig.load(portfolio)
    for sid in model.vocabulary:
        if sid != NO_SOLUTION and sid not in portfolio.solver_ids:
            raise ValueError(f"model vocabulary solver {sid!r} missing from portfolio")

    t0 = time.perf_counter()
    inst = parse_opb_file(instance_path)
    label, probabilities = choose_solver(model, inst, budget)
    preparation = time.perf_counter() - t0
    outcome = SolveOutcome(
        predicted_label=label, preparation_seconds=preparation, exit_condition=BUDGET_EXHAUSTED
    )
    remaining = budget - preparation
    if remaining <= 0:
        pass  # preparation used the whole budget: nothing is launched
    elif label == NO_SOLUTION and on_no_solution == NO_SOLUTION_REPORT:
        outcome.exit_condition = NO_SOLUTION_PREDICTED
    else:
        chosen = label
        if chosen == NO_SOLUTION:
            chosen = max((s for s in portfolio.solver_ids if s in probabilities), key=probabilities.__getitem__)
            logger.info("NO_SOLUTION predicted; falling back to %s", chosen)
        outcome.chosen_solver = chosen
        try:
            lines, events, status = run_adapter(portfolio.by_id(chosen), instance_path, remaining)
        except AdapterError as exc:
            logger.error("%s", exc)
            outcome.exit_condition = SOLVER_FAILED
        else:
            if events:
                outcome.incumbent_seconds, outcome.objective = events[-1]
            outcome.exit_condition = SOLVER_FAILED if status == "crashed" and not events else OK
            if assignment_path is not None:
                payload = [line[2:] for _, line in lines if line.startswith("v ")]
                if payload:
                    Path(assignment_path).write_text(" ".join(payload) + "\n")
                    outcome.assignment_path = str(assignment_path)
    return outcome
