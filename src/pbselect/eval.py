"""Anytime evaluation: one normalized value tensor, cumulative metrics, gap scores.

An :class:`EvalContext` holds ``values[instance, timestep, solver]``: each
solver's sampled objective normalized per instance against the best and
worst values any portfolio solver ever found there, (o - o_min) /
(o_max - o_min) computed from the exact ints, 0 when o_min == o_max, and
2.0 where the solver has no solution yet.  ``ranks`` holds each value's
rank among the instance's distinct objectives (-1 for none), for exact
equality tests.  Only pairs where some solver has a solution are
evaluated; summed over them with ``math.fsum`` (so their order does not
matter), a solver's column gives m_s, the minimum over solvers m_VBS and
a policy's chosen values m_ms.  The headline score is the gap ratio

    m_hat = (m_ms - m_VBS) / (m_SBS - m_VBS)

which is 0 for a perfect (virtual-best) selector and 1 for always running
the single best solver.  Accuracy and the confusion matrix, by contrast,
cover every test row.

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

from .dataset import TEST, LabeledDataset, rank_sampled
from .grid import TimestepGrid
from .runner import RunArchive, Trajectory, sample_events


class DegeneratePortfolioError(ValueError):
    """m_SBS equals m_VBS, so the gap ratio is undefined."""


def m_hat(m_ms: float, m_sbs: float, m_vbs: float) -> float:
    if m_sbs <= m_vbs:
        raise DegeneratePortfolioError(
            f"m_SBS ({m_sbs}) must exceed m_VBS ({m_vbs}) for the gap ratio"
        )
    return (m_ms - m_vbs) / (m_sbs - m_vbs)


def sbs_breakdown(ranks: np.ndarray, best_ranks: np.ndarray) -> dict[str, int]:
    """Classify each pair by the rank of its value: the best found at that
    pair (``best_ranks``), a worse feasible one, or none (-1)."""
    feasible = ranks >= 0
    none = int((~feasible).sum())
    best = int((feasible & (ranks == best_ranks)).sum())
    return {"best": best, "non_best": len(ranks) - best - none, "none": none}


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
        With per-instance ``overhead`` seconds, the lookup moves to the
        largest grid point that still fits before t_j once the overhead is
        spent; where none fits, the pair gets 2.0 and rank -1 too.
        """
        n, count, k = self.values.shape
        steps = np.broadcast_to(np.arange(count), labels.shape)
        if overhead is not None:
            points = np.array(self.grid.points)
            steps = np.searchsorted(points, points - overhead[:, None], side="right") - 1
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
    portfolio solver.
    """
    ids = list(trajectories)
    shape = (len(ids), grid.count, len(solver_order))
    values = np.full(shape, 2.0)
    ranks = np.full(shape, -1, dtype=np.intp)
    for i, iid in enumerate(ids):
        trajs = [trajectories[iid][sid] for sid in solver_order]
        ranks[i], distinct = rank_sampled([sample_events(t.events, grid) for t in trajs])
        if not distinct:
            continue
        events = [v for t in trajs for _, v in t.events]
        lo, hi = min(events), max(events)
        table = [0.0 if lo == hi else (v - lo) / (hi - lo) for v in distinct] + [2.0]
        values[i] = np.array(table)[ranks[i]]
    return EvalContext(grid, list(solver_order), ids, values, ranks)


def build_context(ds: LabeledDataset, archive: RunArchive) -> EvalContext:
    """Load the trajectories of the test instances, in dataset order."""
    if not ds.split:
        raise ValueError("dataset has no train/test split yet")
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
    vocabulary: list[str]
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
    breakdown: dict[str, dict[str, int]]
    per_timestep: list[tuple[int, float | None, float | None]]

    def to_text(self) -> str:
        lines = [
            f"evaluated pairs: {self.n_pairs}   test rows: {self.n_rows}",
            f"SBS: {self.sbs_id}",
        ]
        for sid in self.solver_order:
            lines.append(f"m[{sid}] = {self.m_s[sid]:.6f}")
        lines.append(f"m_VBS = {self.m_vbs:.6f}")
        lines.append(f"m_SBS = {self.m_sbs:.6f}")
        lines.append(f"m_ms  = {self.m_ms:.6f}")
        lines.append(f"m_hat (no overhead) = {self.m_hat:.6f}")
        lines.append(f"m_hat (overhead)    = {self.m_hat_overhead:.6f}")
        lines.append(f"accuracy = {self.accuracy:.6f}")
        for policy, counts in self.breakdown.items():
            lines.append(
                f"breakdown[{policy}]: best={counts['best']} "
                f"non_best={counts['non_best']} none={counts['none']}"
            )
        return "\n".join(lines) + "\n"

    def confusion_csv(self) -> str:
        lines = ["true\\predicted," + ",".join(self.vocabulary)]
        for i, label in enumerate(self.vocabulary):
            lines.append(label + "," + ",".join(str(int(v)) for v in self.confusion[i]))
        return "\n".join(lines) + "\n"

    def per_timestep_csv(self) -> str:
        lines = ["timestep,m_hat,m_hat_overhead"]
        for j, *ratios in self.per_timestep:
            lines.append(f"{j}," + ",".join("" if r is None else repr(r) for r in ratios))
        return "\n".join(lines) + "\n"

    def breakdown_csv(self) -> str:
        lines = ["policy,best,non_best,none"]
        for policy, c in self.breakdown.items():
            lines.append(f"{policy},{c['best']},{c['non_best']},{c['none']}")
        return "\n".join(lines) + "\n"


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
    if model.params.get("grid", ds.grid.params()) != ds.grid.params():
        raise ValueError("model was trained on a different timestep grid")

    ctx = build_context(ds, archive)
    X, truth = ds.matrix(TEST)
    if not len(truth):
        raise ValueError("dataset has no test rows")

    predicted = model.predict_batch(X)
    labels = predicted.reshape(len(ctx.instance_ids), ds.grid.count)
    vocab = ds.vocabulary()
    k = len(vocab)
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
        seconds[i] = ds.feature_seconds.get(iid, 0.0) + (time.perf_counter() - t0)
    overhead_values, _ = ctx.choose(labels, seconds)
    m_ms_overhead = ctx.metric(overhead_values)

    evaluated = ctx.evaluated
    best_ranks = np.where(ctx.ranks < 0, np.iinfo(np.intp).max, ctx.ranks).min(axis=2)[evaluated]
    breakdown = {
        f"sbs:{sbs_id}": sbs_breakdown(ctx.ranks[:, :, sbs_index][evaluated], best_ranks),
        "selector": sbs_breakdown(policy_ranks[evaluated], best_ranks),
    }

    return EvalReport(
        solver_order=ds.solver_order,
        vocabulary=vocab,
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
        breakdown=breakdown,
        per_timestep=_per_timestep_series(
            evaluated, ctx.values[:, :, sbs_index], vbs_values, policy_values, overhead_values
        ),
    )
