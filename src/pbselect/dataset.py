"""Turn a run archive into a labeled learning dataset.

The layout is columnar, as in ASlib: an (instances x features) table and
an (instances x timesteps) matrix of winner labels.  ``matrix`` broadcasts
the table against the encoded timestep column into learning rows, in
instance-then-timestep order; ``rows`` builds one read-only
:class:`DatasetRow` per pair on demand.  On disk a dataset has the same
layout: a CSV with one line per instance (its features, then its label at
each grid index) and a ``.meta.json`` sidecar for everything else.

The winner is the solver holding the smallest objective at that
timestep; ties go to the solver that reached the value first, and residual
ties (same value, same time) to the earlier solver in portfolio declaration
order.  Pairs where no solver has found anything yet get the NO_SOLUTION
label.  Objectives are unbounded ints, compared through their ranks among
the instance's distinct event values (:func:`pbselect.runner.held_ranks`).
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import features
from .features import FeatureVector, encode_timestep, feature_names
from .grid import TimestepGrid, make_grid
from .opb import MissingObjectiveError, OpbParseError, parse_opb_file
from .runner import RunArchive, held_ranks

logger = logging.getLogger(__name__)

NO_SOLUTION = "NO_SOLUTION"

TRAIN = "train"
TEST = "test"

def winner_labels(ranks: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Winner label index at each timestep of one instance, from
    :func:`~pbselect.runner.held_ranks`' (timestep x solver) ranks and times.

    Smallest objective wins, then earliest achievement, then declaration
    order; index ``ranks.shape[1]`` (no solver holds a rank) is NO_SOLUTION.
    """
    feasible = ranks >= 0
    key = np.where(feasible, ranks, np.iinfo(np.intp).max)
    tied = key == key.min(axis=1, keepdims=True)
    at = np.where(tied, times, np.inf)
    first = tied & (at == at.min(axis=1, keepdims=True))
    return np.where(feasible.any(axis=1), first.argmax(axis=1), ranks.shape[1])


@dataclass(frozen=True)
class DatasetRow:
    instance_id: str
    benchmark_id: str
    timestep_index: int
    features: FeatureVector
    label: str


@dataclass
class LabeledDataset:
    instance_ids: list[str]
    benchmark_ids: list[str]
    features: np.ndarray  # (instances, features)
    labels: np.ndarray  # (instances, grid.count) indices into vocabulary()
    schema: str
    encoding: str
    grid: TimestepGrid
    solver_order: list[str]
    split: dict[str, str] = field(default_factory=dict)
    feature_seconds: dict[str, float] = field(default_factory=dict)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        n, d = len(self.instance_ids), len(feature_names(self.schema, with_timestep=False))
        self.features = np.asarray(self.features, dtype=np.float64).reshape(n, d)
        self.labels = np.asarray(self.labels, dtype=np.intp).reshape(n, self.grid.count)

    def vocabulary(self) -> list[str]:
        return self.solver_order + [NO_SOLUTION]

    def timesteps(self) -> list[float]:
        """The encoded timestep feature of each grid index."""
        return [encode_timestep(j, self.grid, self.encoding) for j in range(self.grid.count)]

    def part_mask(self, part: str | None) -> np.ndarray:
        """Which instances belong to ``part``; None selects every instance."""
        return np.array(
            [part is None or self.split.get(iid) == part for iid in self.instance_ids], dtype=bool
        )

    def matrix(self, part: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows (instance features, then the timestep) and label
        indices of ``part``'s instances, in instance-then-timestep order."""
        mask = self.part_mask(part)
        table = self.features[mask]
        n, d = table.shape
        X = np.empty((n, self.grid.count, d + 1))
        X[:, :, :d] = table[:, None, :]
        X[:, :, d] = self.timesteps()
        return X.reshape(-1, d + 1), self.labels[mask].reshape(-1)

    @property
    def rows(self) -> list[DatasetRow]:
        """One read-only row object per (instance, timestep), built on demand."""
        vocab, steps = self.vocabulary(), self.timesteps()
        return [
            DatasetRow(iid, bench, j, FeatureVector(values, steps[j]), vocab[label])
            for iid, bench, values, labels in zip(
                self.instance_ids, self.benchmark_ids, map(tuple, self.features.tolist()),
                self.labels.tolist(),
            )
            for j, label in enumerate(labels)
        ]


def build_dataset(
    archive: RunArchive,
    schema: str,
    solver_order: list[str],
    encoding: str = "index",
) -> LabeledDataset:
    """Label every instance of the archive at every timestep.

    Instances that fail to parse, lack an objective, or miss a trajectory
    for some portfolio solver are skipped and listed in ``skipped``.
    Features are computed once per instance.  The wall time of parsing
    the instance and computing them is recorded in ``feature_seconds``:
    the preparation ``solve`` charges before it predicts.
    """
    if not solver_order:
        raise ValueError("the portfolio has no solvers")
    grid = archive.grid
    ids: list[str] = []
    benches: list[str] = []
    table: list[tuple[float, ...]] = []
    labels: list[np.ndarray] = []
    feature_seconds: dict[str, float] = {}
    skipped: list[tuple[str, str]] = []

    for iid, bench, path in archive.instances():
        missing = next((sid for sid in solver_order if not archive.has(iid, sid)), None)
        if missing is not None:
            skipped.append((iid, f"missing trajectory for solver {missing}"))
            continue
        trajs = [archive.read_trajectory(iid, sid) for sid in solver_order]
        t0 = time.perf_counter()
        try:
            inst = parse_opb_file(path)
            values = features.extract(inst, schema).values
        except (OSError, OpbParseError) as exc:
            skipped.append((iid, f"unparsable: {exc}"))
            continue
        except MissingObjectiveError:
            skipped.append((iid, "no objective"))
            continue
        feature_seconds[iid] = time.perf_counter() - t0
        ids.append(iid)
        benches.append(bench)
        table.append(values)
        ranks, times, _ = held_ranks(trajs, grid)
        labels.append(winner_labels(ranks, times))
    for iid, reason in skipped:
        logger.warning("skipped %s: %s", iid, reason)
    return LabeledDataset(
        instance_ids=ids,
        benchmark_ids=benches,
        features=table,
        labels=labels,
        schema=schema,
        encoding=encoding,
        grid=grid,
        solver_order=list(solver_order),
        feature_seconds=feature_seconds,
        skipped=skipped,
    )


def split_by_benchmark(
    ds: LabeledDataset, seed: int, train_fraction: float = 0.7
) -> LabeledDataset:
    """Assign instances to train/test per benchmark, ceil(fraction*k) to train.

    The shuffle is seeded and benchmarks are visited in sorted order, so the
    split is a deterministic function of (dataset, seed).  A single-instance
    benchmark goes entirely to train.  Raises ValueError unless
    ``train_fraction`` lies in [0, 1].
    """
    if not 0 <= train_fraction <= 1:
        raise ValueError(f"train fraction {train_fraction} is not in [0, 1]")
    by_bench: dict[str, set[str]] = {}
    for bench, iid in zip(ds.benchmark_ids, ds.instance_ids):
        by_bench.setdefault(bench, set()).add(iid)
    rng = random.Random(seed)
    split: dict[str, str] = {}
    for bench in sorted(by_bench):
        ids = sorted(by_bench[bench])
        rng.shuffle(ids)
        n_train = math.ceil(train_fraction * len(ids))
        for i, iid in enumerate(ids):
            split[iid] = TRAIN if i < n_train else TEST
    return replace(ds, split=split)


def win_tables(ds: LabeledDataset) -> dict[str, tuple[list[str], list]]:
    """Each label's wins per grid index and per benchmark, as the
    ``(header, rows)`` tables ``wins_by_timestep`` and ``wins_by_benchmark``."""
    labels = ds.vocabulary()
    wins = ds.labels[:, :, None] == np.arange(len(labels))  # (instance, timestep, label)
    benches = np.array(ds.benchmark_ids, dtype=object)
    return {
        "wins_by_timestep": (["timestep", *labels], [[j, *n] for j, n in enumerate(wins.sum(axis=0).tolist())]),
        "wins_by_benchmark": (["benchmark", *labels], [
            [b, *wins[benches == b].sum(axis=(0, 1)).tolist()] for b in sorted(set(ds.benchmark_ids))
        ]),
    }


# ---------------------------------------------------------------------------
# CSV persistence

def _sidecar(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _header(schema: str, count: int) -> list[str]:
    return [
        "benchmark", "instance", "split", *feature_names(schema, with_timestep=False),
        *(f"label_{j}" for j in range(count)),
    ]


def write_csv(ds: LabeledDataset, path: str | Path) -> None:
    """Write one line per instance plus a ``.meta.json`` sidecar.

    A line holds the instance's benchmark, id and split part (empty when
    unassigned), its features as ``repr(float)``, which reads back
    bit-identical, and the name of its winner at each grid index.  The
    sidecar holds the schema, timestep encoding, grid, solver order,
    ``feature_seconds`` and the skipped instances with their reasons.
    """
    path = Path(path)
    vocab = ds.vocabulary()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(ds.schema, ds.grid.count))
        w.writerows(
            [bench, iid, ds.split.get(iid, ""), *map(repr, values), *(vocab[k] for k in labels)]
            for iid, bench, values, labels in zip(
                ds.instance_ids, ds.benchmark_ids, ds.features.tolist(), ds.labels.tolist()
            )
        )
    meta = {
        "schema": ds.schema,
        "encoding": ds.encoding,
        "grid": ds.grid.params(),
        "solvers": ds.solver_order,
        "feature_seconds": ds.feature_seconds,
        "skipped": ds.skipped,
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n")


def _feature_row(path: Path, iid: str, names: list[str], cells: list[str]) -> list[float]:
    row = []
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: instance {iid} has feature {name} = {cell!r}, not a finite float")
        row.append(value)
    return row


def read_csv(path: str | Path) -> LabeledDataset:
    """Read a dataset written by :func:`write_csv`.

    Raises ValueError when the header is not the one the sidecar implies
    (as for a file of an older layout, which must be built again), and,
    naming the instance, when a line has another width than the header,
    holds an unknown label or split part or a feature that is not a finite
    float, or repeats an instance, and when ``feature_seconds`` holds no
    finite number >= 0 for an instance, or one for an instance of no line.
    """
    path = Path(path)
    meta = json.loads(_sidecar(path).read_text())
    grid = make_grid(**meta["grid"])
    schema, solvers = meta["schema"], list(meta["solvers"])
    label_index = {label: k for k, label in enumerate(solvers + [NO_SOLUTION])}
    header = _header(schema, grid.count)
    first_label = len(header) - grid.count
    lines: dict[str, list[str]] = {}
    table: list[list[float]] = []
    labels: list[list[int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(
                f"{path} does not have the header of a {schema} dataset on a "
                f"{grid.count}-point grid; run build-dataset again"
            )
        for rec in reader:
            iid = rec[1] if len(rec) > 1 else ""
            if len(rec) != len(header):
                raise ValueError(f"{path}: instance {iid} has {len(rec)} of {len(header)} cells")
            if iid in lines:
                raise ValueError(f"{path}: instance {iid} has two lines")
            if rec[2] not in ("", TRAIN, TEST):
                raise ValueError(f"{path}: instance {iid} has unknown split part {rec[2]!r}")
            table.append(_feature_row(path, iid, header[3:first_label], rec[3:first_label]))
            try:
                labels.append([label_index[name] for name in rec[first_label:]])
            except KeyError as exc:
                raise ValueError(f"{path}: instance {iid} has unknown label {exc.args[0]!r}") from None
            lines[iid] = rec
    for iid in [*lines, *(seconds := meta["feature_seconds"])]:
        if iid not in lines or type(value := seconds.get(iid)) not in (int, float) or not 0 <= value < math.inf:
            raise ValueError(f"{path}: instance {iid} has feature_seconds {seconds.get(iid)!r}; the sidecar "
                             "must hold one finite number >= 0 for each line's instance and for no other")
    return LabeledDataset(
        instance_ids=list(lines),
        benchmark_ids=[rec[0] for rec in lines.values()],
        features=table,
        labels=labels,
        schema=schema,
        encoding=meta["encoding"],
        grid=grid,
        solver_order=solvers,
        split={iid: rec[2] for iid, rec in lines.items() if rec[2]},
        feature_seconds={iid: float(seconds[iid]) for iid in lines},
        skipped=[tuple(pair) for pair in meta["skipped"]],
    )
