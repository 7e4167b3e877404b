"""Anytime evaluation: one normalized value tensor, cumulative metrics, gap scores.

An :class:`EvalContext` holds ``values[instance, timestep, solver]``: each
solver's sampled objective normalized per instance against the best and
worst values any portfolio solver ever found there, (o - o_min) /
(o_max - o_min) computed from the exact ints, 0 when o_min == o_max, and
2.0 where the solver has no solution yet.  ``ranks`` holds each value's
rank among the instance's distinct event values (-1 for none), for exact
equality tests; values, ranks and bounds come from one
:func:`pbselect.runner.held_ranks` table per instance.  Only pairs where
some solver has a solution are evaluated; summed over them with
``math.fsum`` (so their order does not matter), a solver's column gives
m_s, the minimum over solvers m_VBS and a policy's chosen values m_ms.
The headline score is the gap ratio

    m_hat = (m_ms - m_VBS) / (m_SBS - m_VBS)

which is 0 for a perfect (virtual-best) selector and 1 for always running
the single best solver.  The 3 x 3 ``breakdown`` counts the evaluated pairs
by the class of the SBS's value (rows) and the selector's (columns), best,
non_best or none, so its margins are each policy's counts.  Accuracy and
the confusion matrix, by contrast, cover every test row.

Every report gives both gap ratios: ``m_hat``, and ``m_hat_overhead``,
for which each instance's overhead shifts the trajectory lookup to the
largest grid point t_j' with t_j' + overhead <= t_j, so the selector only
gets credit for what its solver could produce in the remaining budget.
Overhead has one definition, shared with :func:`pbselect.metaselect.solve`:
the seconds to parse the instance, compute its features and predict one
row.  Loading the model is not charged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import NO_SOLUTION, TEST, LabeledDataset
from .grid import TimestepGrid
from .runner import RunArchive, Trajectory, held_ranks


CLASSES = ("best", "non_best", "none")


class DegeneratePortfolioError(ValueError):
    """m_SBS equals m_VBS, so the gap ratio is undefined."""


def m_hat(m_ms: float, m_sbs: float, m_vbs: float) -> float:
    if m_sbs <= m_vbs:
        raise DegeneratePortfolioError(
            f"m_SBS ({m_sbs}) must exceed m_VBS ({m_vbs}) for the gap ratio"
        )
    return (m_ms - m_vbs) / (m_sbs - m_vbs)


def breakdown_table(sbs_ranks: np.ndarray, selector_ranks: np.ndarray, best_ranks: np.ndarray) -> np.ndarray:
    """Count the pairs by the SBS's class (rows) and the selector's (columns), each in
    :data:`CLASSES` order and given by the rank of the value held: the best found at that
    pair (``best_ranks``), a worse one, or none (-1)."""
    sbs_class, selector_class = (np.where(r < 0, 2, r != best_ranks) for r in (sbs_ranks, selector_ranks))
    return np.bincount(3 * sbs_class + selector_class, minlength=9).reshape(3, 3)


@dataclass
class EvalContext:
    """Normalized values and ranks of one split, (instance, timestep, solver)."""

    grid: TimestepGrid
    solver_order: list[str]
    instance_ids: list[str]
    values: np.ndarray
    ranks: np.ndarray

    @property
    def evaluated(self) -> np.ndarray:
        """(instance, timestep) pairs where some solver has a solution."""
        return (self.ranks >= 0).any(axis=2)

    def metric(self, values: np.ndarray) -> float:
        """Sum of an (instance, timestep) array over the evaluated pairs."""
        return math.fsum(values[self.evaluated].tolist())

    def choose(
        self, labels: np.ndarray, overhead: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalized value and rank that each pair's chosen solver holds.

        ``labels`` is an (instance, timestep) array of solver indices; the
        index ``len(solver_order)`` (NO_SOLUTION) gets 2.0 and rank -1.
        With per-instance ``overhead`` seconds (none when None), the lookup moves to the
        largest grid point that still fits before t_j once the overhead is
        spent; where none fits, the pair gets 2.0 and rank -1 too.
        """
        n, _, k = self.values.shape
        points = np.array(self.grid.points)
        spent = np.zeros((n, 1)) if overhead is None else overhead[:, None]
        steps = np.searchsorted(points, points - spent, side="right") - 1
        at = (np.arange(n)[:, None], np.maximum(steps, 0), np.minimum(labels, k - 1))
        chosen = (labels < k) & (steps >= 0)
        return np.where(chosen, self.values[at], 2.0), np.where(chosen, self.ranks[at], -1)


def context_from_trajectories(
    grid: TimestepGrid,
    solver_order: list[str],
    trajectories: dict[str, dict[str, Trajectory]],
) -> EvalContext:
    """Build an evaluation context from per-instance, per-solver trajectories,
    keeping the mapping's instance order.

    Each instance is normalized by the extremes of every event of every
    portfolio solver, held at a grid point or not.
    """
    ids = list(trajectories)
    shape = (len(ids), grid.count, len(solver_order))
    values = np.full(shape, 2.0)
    ranks = np.empty(shape, dtype=np.intp)
    for i, iid in enumerate(ids):
        ranks[i], _, distinct = held_ranks([trajectories[iid][sid] for sid in solver_order], grid)
        if not distinct:
            continue
        lo, hi = distinct[0], distinct[-1]
        table = [0.0 if lo == hi else (v - lo) / (hi - lo) for v in distinct] + [2.0]
        values[i] = np.array(table)[ranks[i]]
    return EvalContext(grid, list(solver_order), ids, values, ranks)


def build_context(ds: LabeledDataset, archive: RunArchive) -> EvalContext:
    """Load the trajectories of the test instances, in dataset order."""
    if not ds.split:
        raise ValueError("dataset has no train/test split yet")
    if archive.grid.params() != ds.grid.params():
        raise ValueError(f"archive grid {archive.grid.params()} differs from the dataset grid {ds.grid.params()}")
    ids = [iid for iid, keep in zip(ds.instance_ids, ds.part_mask(TEST)) if keep]
    trajectories = {
        iid: {sid: archive.read_trajectory(iid, sid) for sid in ds.solver_order}
        for iid in ids
    }
    return context_from_trajectories(ds.grid, ds.solver_order, trajectories)


def pick_sbs(ctx: EvalContext, sbs: str = "auto") -> tuple[str, dict[str, float]]:
    """Resolve the single best solver and return all per-solver metrics."""
    m_s = {sid: ctx.metric(ctx.values[:, :, s]) for s, sid in enumerate(ctx.solver_order)}
    if sbs != "auto":
        if sbs not in ctx.solver_order:
            raise ValueError(f"pinned SBS {sbs!r} is not a portfolio solver")
        return sbs, m_s
    return min(ctx.solver_order, key=m_s.__getitem__), m_s


@dataclass
class EvalReport:
    solver_order: list[str]
    n_pairs: int
    n_rows: int
    m_s: dict[str, float]
    sbs_id: str
    m_sbs: float
    m_vbs: float
    m_ms: float
    m_ms_overhead: float
    m_hat: float
    m_hat_overhead: float
    accuracy: float
    confusion: np.ndarray  # rows: true label, columns: predicted
    breakdown: np.ndarray  # evaluated pairs; rows: the SBS's class, columns: the selector's
    sbs_none_test_pairs: int  # every test pair where the SBS holds nothing, evaluated or not
    per_timestep: list[tuple[int, float | None, float | None]]

    def tables(self) -> dict[str, tuple[list[str], list]]:
        """The report's ``(header, rows)`` tables keyed by file stem, which ``pbselect evaluate
        --out-dir`` writes as ``<stem>.csv``: ``summary`` holds each scalar, and ``breakdown``
        counts the evaluated pairs by the SBS's class (rows) and the selector's (columns), so its
        row sums are the SBS's best/non_best/none counts and its column sums the selector's."""
        vocab = [*self.solver_order, NO_SOLUTION]
        scalars = [("evaluated_pairs", self.n_pairs), ("test_rows", self.n_rows), ("sbs", self.sbs_id),
                   *((f"m[{sid}]", self.m_s[sid]) for sid in self.solver_order), ("m_vbs", self.m_vbs),
                   ("m_sbs", self.m_sbs), ("m_ms", self.m_ms), ("m_ms_overhead", self.m_ms_overhead),
                   ("m_hat", self.m_hat), ("m_hat_overhead", self.m_hat_overhead), ("accuracy", self.accuracy),
                   ("sbs_none_pairs", int(self.breakdown[2].sum())), ("sbs_none_test_pairs", self.sbs_none_test_pairs),
                   ("rescued_pairs", int(self.breakdown[2, :2].sum()))]  # the selector holds a value
        return {
            "summary": (["metric", "value"], scalars),
            "confusion": (["true\\predicted", *vocab],
                          [[label, *counts] for label, counts in zip(vocab, self.confusion.tolist())]),
            "m_hat_timesteps": (["timestep", "m_hat", "m_hat_overhead"], self.per_timestep),
            "breakdown": (["sbs\\selector", *CLASSES],
                          [[c, *counts] for c, counts in zip(CLASSES, self.breakdown.tolist())]),
        }


def _per_timestep_series(
    evaluated: np.ndarray, sbs: np.ndarray, vbs: np.ndarray, policy: np.ndarray, overhead: np.ndarray
) -> list[tuple[int, float | None, float | None]]:
    """Both gap ratios at each timestep holding an evaluated pair; None where m_SBS <= m_VBS."""
    series = []
    for j in np.flatnonzero(evaluated.any(axis=0)).tolist():
        s, v, m, mo = (math.fsum(a[evaluated[:, j], j].tolist()) for a in (sbs, vbs, policy, overhead))
        if s <= v:
            series.append((j, None, None))
        else:
            series.append((j, (m - v) / (s - v), (mo - v) / (s - v)))
    return series


def evaluate_selector(
    model,
    ds: LabeledDataset,
    archive: RunArchive,
    sbs: str = "auto",
) -> EvalReport:
    """Score a trained model's selections on the dataset's test split.

    The replayed policy chooses, for each test row, the model's predicted
    solver and reads that solver's recorded objective at the row's
    timestep.  Per-instance overhead is the parse and feature time the
    dataset recorded plus one single prediction timed here, on the
    instance's row at timestep 0.
    """
    if model.vocabulary != ds.vocabulary():
        raise ValueError("model vocabulary does not match the dataset portfolio")
    if model.schema != ds.schema or model.encoding != ds.encoding:
        raise ValueError("model schema/encoding does not match the dataset")
    if model.params["grid"] != ds.grid.params():
        raise ValueError("model was trained on a different timestep grid")

    ctx = build_context(ds, archive)
    X, truth = ds.matrix(TEST)
    if not len(truth):
        raise ValueError("dataset has no test rows")

    predicted = model.predict_batch(X)
    labels = predicted.reshape(len(ctx.instance_ids), ds.grid.count)
    k = len(ds.vocabulary())
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)
    accuracy = float((truth == predicted).sum() / len(truth))

    sbs_id, m_s = pick_sbs(ctx, sbs)
    sbs_index = ds.solver_order.index(sbs_id)
    vbs_values = ctx.values.min(axis=2)
    m_sbs = m_s[sbs_id]
    m_vbs = ctx.metric(vbs_values)

    policy_values, policy_ranks = ctx.choose(labels)
    m_ms = ctx.metric(policy_values)

    # the recorded parse and feature time plus one timed single-row prediction
    seconds = np.zeros(len(ctx.instance_ids))
    for i, iid in enumerate(ctx.instance_ids):
        row = tuple(X[i * ds.grid.count].tolist())
        t0 = time.perf_counter()
        model.predict_values(row)
        seconds[i] = ds.feature_seconds[iid] + (time.perf_counter() - t0)
    overhead_values, _ = ctx.choose(labels, seconds)
    m_ms_overhead = ctx.metric(overhead_values)

    evaluated = ctx.evaluated
    best_ranks = np.where(ctx.ranks < 0, np.iinfo(np.intp).max, ctx.ranks).min(axis=2)[evaluated]

    return EvalReport(
        solver_order=ds.solver_order,
        n_pairs=int(evaluated.sum()),
        n_rows=len(truth),
        m_s=m_s,
        sbs_id=sbs_id,
        m_sbs=m_sbs,
        m_vbs=m_vbs,
        m_ms=m_ms,
        m_ms_overhead=m_ms_overhead,
        m_hat=m_hat(m_ms, m_sbs, m_vbs),
        m_hat_overhead=m_hat(m_ms_overhead, m_sbs, m_vbs),
        accuracy=accuracy,
        confusion=confusion,
        breakdown=breakdown_table(ctx.ranks[:, :, sbs_index][evaluated], policy_ranks[evaluated], best_ranks),
        sbs_none_test_pairs=int((ctx.ranks[:, :, sbs_index] < 0).sum()),
        per_timestep=_per_timestep_series(
            evaluated, ctx.values[:, :, sbs_index], vbs_values, policy_values, overhead_values
        ),
    )
