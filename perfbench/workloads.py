"""The three workloads: one pipeline of ``pbselect`` commands, three make-ups of input.

Every workload runs the chain a user runs after ``run-portfolio``, on its
own inputs:

* set-up: write the seeded inputs, then ``build_dataset`` + ``write_csv``
  per schema (``pbselect build-dataset``);
* round: ``read_csv`` + ``split_by_benchmark`` per schema, then
  ``train_model`` + ``save`` per model (``pbselect train``);
  ``TrainedModel.load`` + ``evaluate_selector`` per model
  (``pbselect evaluate``); then a fixed list of ``metaselect.solve``
  calls, each loading its model from file (``pbselect solve``).

The workloads differ only in what they feed the chain (``SPECS``), so each
one weighs the layers differently.  Every program call goes through the
module attribute, so the traced run's wrappers see it.  Each timed call
starts after a full collection, with no dataset or model of an earlier
step kept alive unless the step consumes it.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pbselect import dataset, eval as evaluation, features, metaselect, opb, runner
from pbselect.learners import TrainedModel, train_model

import checks
from inputs import (
    NO_SOLUTION,
    OBJ_BASE,
    SHAPE_SEED,
    SOLVERS,
    ArchiveTruth,
    OpbCounts,
    between,
    grid_points,
    mid_instance,
    regime_of,
    serve_instance,
    serve_sizes,
    tiny_instance,
    write_adapters,
    write_archive,
)

SPLIT_SEED = 7
MODEL_SEED = 0


@dataclass(frozen=True)
class Spec:
    n_instances: int
    grid: tuple[int, float, float]  # count, horizon, t_min
    make_instance: object
    schemas: tuple[str, ...]
    families: tuple[str, ...]  # trained with the program's default hyperparameters
    train_fraction: float
    # Instances the solve calls cover; coprime with the number of models, so
    # the call list pairs each instance with each model.  They are archive
    # instances, or, with ``served_terms``, generated instances whose term
    # counts spread log-evenly between the two bounds.
    served: int
    served_terms: tuple[int, int] | None = None

    def models(self) -> list[tuple[str, str]]:
        return [(schema, fam) for schema in self.schemas for fam in self.families]


SPECS = {
    # 20,000 rows of tiny instances: per-row work dominates building, CSV
    # I/O, tree fit, batch predict and the evaluator.  A quarter of the
    # instances train (one of the four of each benchmark), so evaluation
    # runs over 15,000 rows.  KNN is left out: its batch predict over them
    # would double the round.
    "offline-fine": Spec(
        n_instances=40,
        grid=(500, 3600.0, 0.01),
        make_instance=tiny_instance,
        schemas=("nonlinear",),
        families=("rf", "gb"),
        train_fraction=0.25,
        served=31,
    ),
    # 100 mid-size instances on a coarse grid: parse and linearize dominate
    # building and solving, KNN batch prediction dominates evaluation.
    "offline-coarse": Spec(
        n_instances=100,
        grid=(40, 3600.0, 0.01),
        make_instance=mid_instance,
        schemas=("linear",),
        families=("rf", "gb", "knn"),
        train_fraction=0.3,
        served=20,
    ),
    # Six small models (every family on both schemas, trained on 30 tiny
    # instances with the program's default split) serving 5 generated
    # instances of 150 to 15,000 terms: the solve path dominates.
    "serve": Spec(
        n_instances=40,
        grid=(30, 3600.0, 10.0),
        make_instance=tiny_instance,
        schemas=("nonlinear", "linear"),
        families=("rf", "gb", "knn"),
        train_fraction=0.7,
        served=5,
        served_terms=(150, 15_000),
    ),
}


@dataclass
class Call:
    instance: Path
    counts: OpbCounts
    budget: float
    timestep: int
    model: Path
    schema: str


@dataclass
class Inputs:
    truth: ArchiveTruth
    calls: list[Call]


def model_path(root: Path, schema: str, family: str) -> Path:
    return root / f"model-{schema}-{family}.json"


def csv_path(root: Path, schema: str) -> Path:
    return root / f"dataset-{schema}.csv"


def portfolio_path(root: Path) -> Path:
    return root / "adapters" / "portfolio.json"


def write_inputs(spec: Spec, root: Path, seed: int) -> Inputs:
    """Adapters, the archive with its instances, and the solve calls.

    A call's budget lies strictly inside the last grid interval of a regime
    (0.5 s and more on the offline grids, 27 s and more on ``serve``'s),
    so preparation never exhausts it."""
    write_adapters(root / "adapters")
    truth = write_archive(root, seed, spec.n_instances, spec.grid, spec.make_instance)
    if spec.served_terms:
        shape, surface = random.Random(SHAPE_SEED), random.Random(seed)
        served = []
        for i, n_terms in enumerate(serve_sizes(spec.served, *spec.served_terms)):
            path = root / "served" / f"p{i:02d}.opb"
            path.parent.mkdir(parents=True, exist_ok=True)
            served.append((path, serve_instance(path, shape, surface, n_terms, nonlinear=i % 2 == 1)))
    else:
        ids = truth.instances
        picked = [ids[k * len(ids) // spec.served] for k in range(spec.served)]
        served = [(root / "instances" / truth.benchmark[iid] / (iid.split("__")[1] + ".opb"),
                   truth.counts[iid]) for iid in picked]
    count = spec.grid[0]
    points = grid_points(*spec.grid)
    last = [max(j for j in range(count - 1) if regime_of(j, count) == r) for r in range(3)]
    models = spec.models()
    calls = []
    for i in range(spec.served * len(models)):
        path, counts = served[i % spec.served]
        schema, fam = models[i % len(models)]
        j = last[(i // len(models)) % 3]
        calls.append(Call(path, counts, between(points, j), j, model_path(root, schema, fam), schema))
    return Inputs(truth, calls)


def setup(spec: Spec, root: Path, seed: int, recording) -> tuple[Inputs, float, dict[str, int]]:
    """One set-up into a fresh ``root``: the inputs, then each schema's
    dataset built and written.  Returns the inputs, the seconds it took
    (checks and the removal of an earlier set-up excluded) and a digest of
    each dataset, for the rounds' round-trip check."""
    shutil.rmtree(root, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    inputs = write_inputs(spec, root, seed)
    seconds = time.perf_counter() - t0
    archive = runner.RunArchive(root / "archive")
    digests = {}
    for schema in spec.schemas:
        gc.collect()
        with recording():
            t0 = time.perf_counter()
            ds = dataset.build_dataset(archive, schema, SOLVERS)
            dataset.write_csv(ds, csv_path(root, schema))
            seconds += time.perf_counter() - t0
        checks.check_dataset(ds, inputs.truth, schema)
        digests[schema] = checks.fingerprint(ds)
        del ds
    return inputs, seconds, digests


def operations(spec: Spec) -> int:
    """Operations of a round before its solve calls: a read and a split per
    schema, then a train and an evaluate per model."""
    return 2 * len(spec.schemas) + 2 * len(spec.models())


class Expected:
    """Reference values, computed once per run: models are retrained every
    round with the same seed, so later rounds must reproduce them."""

    def __init__(self):
        self.replay: dict[str, object] = {}  # schema -> checks.OracleReplay
        self.m_hat: dict[tuple[str, str], float] = {}
        self.objective: dict[int, int] = {}


def run_round(spec: Spec, root: Path, inputs: Inputs, digests: dict[str, int],
              expected: Expected, recording, done):
    """One pass of the chain.  Returns the seconds of each step (keyed
    ``<stage>.<step>``), each model's ``m_hat`` figures, the sizes of the
    files written, and (call, outcome, wall seconds) per solve call, with
    outcome None for a call that raised.  ``recording()`` brackets each
    timed call, so the traced run records the program's work and not the
    checks'; ``done()`` is called as each of the ``operations(spec)``
    operations before the solve calls returns, so a caller can count those
    an exception left undone."""

    def timed(fn, *args):
        gc.collect()
        with recording():
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        done()
        return result, seconds

    out: dict[str, float] = {}
    truth = inputs.truth
    archive = runner.RunArchive(root / "archive")
    datasets = {}
    for schema in spec.schemas:
        ds, out[f"train_s.read.{schema}"] = timed(dataset.read_csv, csv_path(root, schema))
        checks.require(checks.fingerprint(ds) == digests[schema],
                       f"read_csv does not round-trip build_dataset ({schema})")
        datasets[schema], out[f"train_s.split.{schema}"] = timed(
            dataset.split_by_benchmark, ds, SPLIT_SEED, spec.train_fraction)
        del ds

    def fit_and_save(ds, fam, path):
        train_model(ds, fam, seed=MODEL_SEED).save(path)

    for schema, fam in spec.models():
        path = model_path(root, schema, fam)
        out[f"train_s.fit.{schema}.{fam}"] = timed(fit_and_save, datasets[schema], fam, path)[1]
        out[f"learners.model_mb.{schema}.{fam}"] = path.stat().st_size / 1e6

    def load_and_evaluate(ds, path):
        return evaluation.evaluate_selector(TrainedModel.load(path), ds, archive)

    for schema, fam in spec.models():
        ds = datasets[schema]
        path = model_path(root, schema, fam)
        report, out[f"evaluate_s.{schema}.{fam}"] = timed(load_and_evaluate, ds, path)
        key = (schema, fam)
        if key not in expected.m_hat:
            test_ids = sorted(iid for iid, part in ds.split.items() if part == dataset.TEST)
            if schema not in expected.replay:
                expected.replay[schema] = checks.OracleReplay(truth, test_ids)
            X = checks.feature_rows(truth, test_ids, schema)
            vocab = SOLVERS + [NO_SOLUTION]
            predicted = [vocab[k] for k in TrainedModel.load(path).predict_batch(X)]
            del X
            expected.m_hat[key] = float(expected.replay[schema].m_hat(predicted))
        checks.require(abs(report.m_hat - expected.m_hat[key]) <= 1e-9,
                       f"{schema} {fam}: m_hat {report.m_hat!r}, exact value {expected.m_hat[key]!r}")
        checks.require(report.m_hat_overhead >= report.m_hat,
                       f"{schema} {fam}: m_hat_overhead {report.m_hat_overhead} below m_hat {report.m_hat}")
        out[f"m_hat.{schema}.{fam}"] = report.m_hat
        out[f"m_hat_overhead.{schema}.{fam}"] = report.m_hat_overhead
        del report
    out["dataset.csv_mb"] = sum(csv_path(root, s).stat().st_size for s in spec.schemas) / 1e6
    del datasets

    portfolio = portfolio_path(root)
    solved = []
    for call in inputs.calls:
        gc.collect()
        outcome = None
        with recording():
            t0 = time.perf_counter()
            try:
                outcome = metaselect.solve(call.instance, call.budget, call.model, portfolio)
            except Exception:
                traceback.print_exc()
            wall = time.perf_counter() - t0
        solved.append((call, outcome, wall))
    return out, solved


def check_solved(solved, expected: Expected) -> None:
    """Each call that ended ``ok`` printed the objective of the solver that
    ``predict_batch`` picks for the generator's feature row at the budget's
    grid index, and its preparation fits inside its wall time."""
    vocab = SOLVERS + [NO_SOLUTION]
    models = {}
    for i, (call, outcome, wall) in enumerate(solved):
        if outcome is None or outcome.exit_condition != metaselect.OK:
            continue
        where = f"{call.instance.name} with {call.model.name}"
        if i not in expected.objective:
            if call.model not in models:
                models[call.model] = TrainedModel.load(call.model)
            row = call.counts.features(call.schema) + (float(call.timestep),)
            label = vocab[int(models[call.model].predict_batch([row])[0])]
            checks.require(label != NO_SOLUTION, f"{where}: model predicts no solution")
            expected.objective[i] = OBJ_BASE + SOLVERS.index(label)
        checks.require(outcome.objective == expected.objective[i],
                       f"{where}: objective {outcome.objective}, expected {expected.objective[i]}")
        checks.require(outcome.preparation_seconds <= wall,
                       f"{where}: preparation {outcome.preparation_seconds} s exceeds wall {wall} s")


def check_served_features(spec: Spec, calls: list[Call]) -> None:
    """The program's features of each served instance equal the counts, in
    every schema the workload uses."""
    seen = set()
    for call in calls:
        if call.instance in seen:
            continue
        seen.add(call.instance)
        inst = opb.parse_opb_file(call.instance)
        for schema in spec.schemas:
            got = features.extract(inst, schema).values
            checks.require(got == call.counts.features(schema),
                           f"{schema} features of {call.instance.name} differ from the counts")
