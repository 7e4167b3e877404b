"""Output checks that do not reuse the program's own computations.

Each check raises ``CheckFailed`` with a message naming what differed.
Expected values come from the generators in :mod:`inputs` (intended
winners, counted features, recorded events) and from exact rational
arithmetic: the gap ratio is recomputed with the repository's test
oracles in ``tests/oracles.py``, which ``run.py`` puts on the path.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import NO_SOLUTION, SOLVERS, ArchiveTruth, grid_points
from oracles import oracle_bounds, oracle_metric, oracle_pairs, oracle_sample
from oracles import oracle_m_hat as exact_gap_ratio


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_dataset(ds, truth: ArchiveTruth, schema: str) -> None:
    """Row count, labels, benchmarks and features of a built dataset."""
    count = truth.grid[0]
    require(
        len(ds.rows) == len(truth.instances) * count,
        f"{len(ds.rows)} rows, expected {len(truth.instances)} x {count}",
    )
    require(not ds.skipped, f"dataset skipped {ds.skipped[:3]}")
    expected = {iid: truth.counts[iid].features(schema) for iid in truth.instances}
    for r in ds.rows:
        iid, j = r.instance_id, r.timestep_index
        require(r.label == truth.label(iid, j), f"label of ({iid}, {j}) is {r.label}")
        require(r.benchmark_id == truth.benchmark[iid], f"benchmark of {iid} is {r.benchmark_id}")
        require(r.features.values == expected[iid], f"features of {iid} differ from the generator's counts")
        require(r.features.timestep == float(j), f"timestep of ({iid}, {j}) is {r.features.timestep}")


def fingerprint(ds) -> int:
    """Order-sensitive hash of everything ``write_csv`` promises to persist;
    equal within one process for equal datasets."""
    h = hash((ds.schema, ds.encoding, tuple(ds.grid.params().items()), tuple(ds.solver_order),
              tuple(sorted(ds.split.items())), tuple(sorted(ds.feature_seconds.items())),
              tuple(ds.skipped)))
    for r in ds.rows:
        h = hash((h, r.instance_id, r.benchmark_id, r.timestep_index, r.label,
                  r.features.values, r.features.timestep))
    return h


def feature_rows(truth: ArchiveTruth, ids: list[str], schema: str) -> list[tuple[float, ...]]:
    """Feature rows (instance features, then the timestep index) in
    instance-then-timestep order, from the generator's counts."""
    rows = []
    for iid in ids:
        base = truth.counts[iid].features(schema)
        rows.extend(base + (float(j),) for j in range(truth.grid[0]))
    return rows


class OracleReplay:
    """Exact gap ratio of replayed policies on one test split, without
    overhead, built from the repository's test oracles
    (``tests/oracles.py``).

    Per instance, values are normalized by the extremes of every recorded
    event; pairs where no solver is feasible are left out, and a policy
    with nothing feasible scores 2.  What does not depend on the policy
    (sampled values, bounds, m_SBS and m_VBS) is computed once.
    """

    def __init__(self, truth: ArchiveTruth, test_ids: list[str]):
        points = grid_points(*truth.grid)
        events = {iid: truth.events[iid] for iid in test_ids}
        position = {iid: n for n, iid in enumerate(test_ids)}
        self.rows = []  # row of each pair in ``feature_rows`` order
        self.sampled = []  # {solver: value} of each pair
        self.bounds = []
        for iid, j in oracle_pairs(events, SOLVERS, points):
            self.rows.append(position[iid] * len(points) + j)
            self.sampled.append({sid: oracle_sample(events[iid][sid], points[j]) for sid in SOLVERS})
            self.bounds.append(oracle_bounds(events[iid].values()))
        self.m_sbs = min(oracle_metric([v[sid] for v in self.sampled], self.bounds)
                         for sid in SOLVERS)
        best = [min(x for x in v.values() if x is not None) for v in self.sampled]
        self.m_vbs = oracle_metric(best, self.bounds)
        require(self.m_sbs > self.m_vbs, "degenerate portfolio: m_SBS equals m_VBS")

    def m_hat(self, predicted: list[str]) -> Fraction:
        """``predicted`` holds one label per (instance, timestep) in
        ``feature_rows`` order."""
        chosen = [None if predicted[row] == NO_SOLUTION else v[predicted[row]]
                  for row, v in zip(self.rows, self.sampled)]
        return exact_gap_ratio(oracle_metric(chosen, self.bounds), self.m_sbs, self.m_vbs)
