"""Benchmark of the pbselect pipeline, one workload per run.

    python3 perfbench/run.py --workload offline-fine --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there and the exact-fraction reference from ``tests/oracles.py``,
and the run fails if either is missing.  A run sets the workload up
several times (seeded inputs, then each schema's dataset built and
written) and reports the median as ``setup_s``, then repeats whole rounds
(read and split, train, evaluate, solve) until ``--seconds`` have passed
and at least MIN_ROUNDS are done, checking every set-up and round.  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (wrappers around each layer's public
functions are then installed).  Scratch files live in ``perfbench/.work/``
and are removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TESTS = HERE.parent / "tests"
WORKLOADS = ("offline-fine", "offline-coarse", "serve")
# Set-ups repeat until both limits are reached; setup_s is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
# Times are upper quartiles over a run's rounds, so every run makes at least
# this many.
MIN_ROUNDS = 4
# Steps (``<stage>.<step>`` in a round's figures) that make up train_evaluate_s
STEPS = ("train_s.", "evaluate_s.")
EVAL_INNER = ("learners.predict_batch", "learners.predict_one", "runner.read_trajectory")


def import_program() -> None:
    """Import pbselect from this checkout's ``src/`` and nowhere else, and
    put the test oracles on the path."""
    if not (SRC / "pbselect" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'pbselect'}")
    if not (TESTS / "oracles.py").is_file():
        sys.exit(f"perfbench: no test oracles at {TESTS / 'oracles.py'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(TESTS))
    import pbselect

    if Path(pbselect.__file__).resolve().parent != (SRC / "pbselect").resolve():
        sys.exit(f"perfbench: imported pbselect from {pbselect.__file__}, not {SRC}")


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def layer_metrics(setups, rounds, figures, prep_ms) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced phases.  A total is per set-up
    plus round: the median over set-ups plus the median over rounds.  A
    per-call median (``.p50``) is the median over rounds of each round's."""

    def both(fn):
        return statistics.median(fn(p) for p in setups) + statistics.median(fn(p) for p in rounds)

    def setup_total(prefix):
        return statistics.median(p.total(prefix) for p in setups)

    def round_total(prefix):
        return statistics.median(p.total(prefix) for p in rounds)

    def p50(prefix, scale):
        return statistics.median(statistics.median(p.durations(prefix)) for p in rounds) * scale

    def round_figure(prefix):
        return statistics.median(sum(v for k, v in r.items() if k.startswith(prefix)) for r in figures)

    parse = both(lambda p: p.total("opb.parse"))
    return {
        "opb.parse_s": (parse, "s"),
        "opb.parse_us_per_term": (parse / both(lambda p: p.size("opb.parse")) * 1e6, "us"),
        "features.extract_s": (both(lambda p: p.total("features.")), "s"),
        "runner.read_trajectory_s": (both(lambda p: p.total("runner.read_trajectory")), "s"),
        "runner.run_adapter_ms.p50": (p50("runner.run_adapter", 1e3), "ms"),
        "dataset.build_s": (setup_total("dataset.build_dataset"), "s"),
        "dataset.write_csv_s": (setup_total("dataset.write_csv"), "s"),
        "dataset.read_csv_s": (round_total("dataset.read_csv"), "s"),
        "dataset.split_s": (round_total("dataset.split_by_benchmark"), "s"),
        "dataset.csv_mb": (round_figure("dataset.csv_mb"), "MB"),
        "learners.fit_s": (round_total("learners.fit."), "s"),
        "learners.predict_batch_s": (round_total("learners.predict_batch."), "s"),
        "learners.predict_one_us.p50": (p50("learners.predict_one.", 1e6), "us"),
        "learners.load_ms.p50": (p50("learners.load.", 1e3), "ms"),
        "learners.model_mb": (round_figure("learners.model_mb."), "MB"),
        "eval.build_context_s": (round_total("eval.build_context"), "s"),
        "eval.self_s": (statistics.median(
            p.self_time("eval.evaluate_selector", EVAL_INNER) for p in rounds), "s"),
        "metaselect.choose_solver_ms.p50": (p50("metaselect.choose_solver", 1e3), "ms"),
        "metaselect.prep_ms.p50": (statistics.median(prep_ms), "ms"),
        "python.gc_s": (both(lambda p: p.gc_seconds), "s"),
        "python.gc_collections": (both(lambda p: p.gc_collections), "count"),
    }


class Run:
    """One workload: set-ups, timed rounds, checks and the figures kept.

    ``workloads`` imports pbselect, so it is imported inside the methods,
    after ``import_program`` has put ``src/`` on the path."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        import workloads

        self.spec = workloads.SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.root = work / "setup"
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()
        self.expected = workloads.Expected()
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.rounds: list[dict[str, float]] = []
        self.setup_phases = []
        self.round_phases = []
        self.solve_ms: dict[int, list[float]] = {}  # call index -> wall ms of each round
        self.prep_ms: list[float] = []

    def recording(self):
        return self.tracer.recording() if self.tracer else contextlib.nullcontext()

    def measure(self) -> None:
        """Set-ups (at least SETUP_REPEATS, and SETUP_SECONDS in all), the
        last of which the rounds use, then whole rounds until ``seconds``
        have passed; at least MIN_ROUNDS.  A round whose steps before the
        solve calls raise ends the run: the operations it left undone count
        as failed, and no later round is started."""
        import workloads

        begin = time.perf_counter()
        if self.tracer:
            self.tracer.install()
        try:
            # Objects that outlive a timed call -- modules, the inputs and the
            # checks' references -- are moved out of the collector's reach
            # before the set-ups, before the rounds and after each round, so
            # a collection scans what the program made, as in a CLI run.
            gc.collect()
            gc.freeze()
            while len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_SECONDS:
                inputs, seconds, digests = workloads.setup(
                    self.spec, self.root, self.seed, self.recording)
                self.setup_times.append(seconds)
                if self.tracer:
                    self.setup_phases.append(self.tracer.take())
            gc.collect()
            gc.freeze()
            start = time.perf_counter()
            print(f"[{start - begin:.1f} s] set-ups: {json.dumps(self.setup_times)}",
                  file=sys.stderr)
            n = 0
            while n < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
                n += 1
                if not self.round(inputs, digests):
                    break
                gc.collect()
                gc.freeze()
                solve_s = sum(self.solve_ms[i][-1] for i in self.solve_ms) / 1e3
                print(f"[{time.perf_counter() - begin:.1f} s] round {n}, solve calls "
                      f"{solve_s:.3f} s: " + json.dumps(self.rounds[-1]), file=sys.stderr)
        finally:
            if self.tracer:
                self.tracer.uninstall()
        workloads.check_served_features(self.spec, inputs.calls)
        print(f"[{time.perf_counter() - begin:.1f} s] checked", file=sys.stderr)

    def round(self, inputs, digests) -> bool:
        """One round; False if it raised before its solve calls.  A solve
        call that raises or does not end ``ok`` counts as failed; so does
        every operation a raising round left undone."""
        import checks
        import workloads

        ops = workloads.operations(self.spec) + len(inputs.calls)
        self.attempted += ops
        finished = 0

        def done():
            nonlocal finished
            finished += 1

        try:
            figures, solved = workloads.run_round(
                self.spec, self.root, inputs, digests, self.expected, self.recording, done)
        except checks.CheckFailed:
            raise
        except Exception:
            traceback.print_exc()
            self.failed += ops - finished
            return False
        ok = {i: wall * 1e3 for i, (_, outcome, wall) in enumerate(solved)
              if outcome is not None and outcome.exit_condition == "ok"}
        self.failed += len(solved) - len(ok)
        workloads.check_solved(solved, self.expected)
        for i, wall in ok.items():
            self.solve_ms.setdefault(i, []).append(wall)
        self.prep_ms += [solved[i][1].preparation_seconds * 1e3 for i in ok]
        self.rounds.append(figures)
        if self.tracer:
            self.round_phases.append(self.tracer.take())
        return True

    def metrics(self) -> dict[str, dict]:
        if self.tracer:
            out = layer_metrics(self.setup_phases, self.round_phases, self.rounds, self.prep_ms)
        else:
            out = {"setup_s": (statistics.median(self.setup_times), "s")}
            # train_evaluate_s is the sum over its steps of each step's upper
            # quartile over the run's rounds, and a solve time is each
            # call's upper quartile over the rounds.  The reference machine
            # runs at one common speed with faster spells of seconds that
            # come and go, so the upper quartile tracks the common speed and
            # leaves out the spells and single slow outliers; it held
            # steadier from run to run than the median or the fastest round
            # (perfbench/README.md).  Ratios are means over the workload's
            # models of their medians over rounds.
            steps = [k for k in self.rounds[0] if k.startswith(STEPS)]
            out["train_evaluate_s"] = (
                sum(upper_quartile([r[k] for r in self.rounds]) for k in steps), "s")
            for ratio in ("m_hat", "m_hat_overhead"):
                per_model = [statistics.median(r[k] for r in self.rounds)
                             for k in self.rounds[0] if k.startswith(ratio + ".")]
                out[ratio] = (statistics.fmean(per_model), "ratio")
            # The calls fall into clusters by model family and instance size,
            # and the median of the calls sits between two clusters on
            # offline-fine (two families, equally many calls), where it
            # jumps from one to the other; the mean has no such edge.
            per_call = [upper_quartile(walls) for walls in self.solve_ms.values()]
            out["solve_ms.mean"] = (statistics.fmean(per_call), "ms")
            out["solve_ms.p90"] = (p90(per_call), "ms")
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import checks

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.measure()
        metrics = run.metrics() if run.rounds and run.solve_ms else {}
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    print(json.dumps({"correct": True, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    if not metrics:
        print("perfbench: no round or no solve call succeeded, so there are no figures",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
