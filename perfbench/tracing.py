"""Spans around calls into each ``pbselect`` layer, for the traced run.

``Tracer.install`` replaces public functions of the program's modules with
wrappers that record (name, start, end, parent) in memory; ``uninstall``
puts the originals back.  The program itself is not edited.  Spans are
recorded only inside ``with tracer.recording():``, so the benchmark's own
checks do not count as work of a layer.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time

from pbselect import dataset, eval as evaluation, features, metaselect, opb, runner
from pbselect.learners import model_io, train


class Span:
    __slots__ = ("name", "start", "end", "parent", "size")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._on = False
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    # --- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        self._on = True
        gc.callbacks.append(self._gc_event)
        try:
            yield
        finally:
            gc.callbacks.remove(self._gc_event)
            self._on = False

    def _gc_event(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextlib.contextmanager
    def span(self, name: str):
        if not self._on:
            yield None
            return
        s = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def take(self) -> "Phase":
        """What was recorded since the last ``take``; recording starts afresh."""
        phase = Phase(self.spans, self.gc_seconds, self.gc_collections)
        self.spans = []
        self.gc_seconds = 0.0
        self.gc_collections = 0
        return phase

    # --- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        tracer = self
        parse = opb.parse_opb

        def parse_counting(*args, **kwargs):
            with tracer.span("opb.parse") as s:
                inst = parse(*args, **kwargs)
            if s is not None:
                s.size = len(inst.objective or ()) + sum(len(c.terms) for c in inst.constraints)
            return inst

        self._patch(opb, "parse_opb", parse_counting)

        extract = self._timed(features.extract, lambda inst, schema: f"features.{schema}")
        self._patch(features, "extract", extract)
        self._patch(metaselect, "extract", extract)

        read = self._timed(runner.RunArchive.read_trajectory, lambda *a: "runner.read_trajectory")
        self._patch(runner.RunArchive, "read_trajectory", read)

        run = self._timed(runner.run_adapter, lambda *a, **k: "runner.run_adapter")
        self._patch(runner, "run_adapter", run)
        self._patch(metaselect, "run_adapter", run)

        for attr, family in (
            ("fit_random_forest", "rf"),
            ("fit_gradient_boosting", "gb"),
            ("fit_knn", "knn"),
        ):
            self._patch(
                train, attr, self._timed(getattr(train, attr), lambda *a, f=family, **k: f"learners.fit.{f}")
            )

        model_cls = model_io.TrainedModel
        self._patch(model_cls, "predict_batch", self._timed(
            model_cls.predict_batch, lambda m, X: f"learners.predict_batch.{m.family}"))
        self._patch(model_cls, "predict_values", self._timed(
            model_cls.predict_values, lambda m, v: f"learners.predict_one.{m.family}"))
        load = model_cls.__dict__["load"].__func__

        def load_named(cls, path):
            with tracer.span("learners.load") as s:
                model = load(cls, path)
            if s is not None:
                s.name = f"learners.load.{model.family}"
            return model

        self._patch(model_cls, "load", classmethod(load_named))

        self._patch(evaluation, "build_context", self._timed(
            evaluation.build_context, lambda *a, **k: "eval.build_context"))
        self._patch(evaluation, "evaluate_selector", self._timed(
            evaluation.evaluate_selector, lambda *a, **k: "eval.evaluate_selector"))
        self._patch(metaselect, "choose_solver", self._timed(
            metaselect.choose_solver, lambda *a, **k: "metaselect.choose_solver"))
        for attr in ("build_dataset", "write_csv", "read_csv", "split_by_benchmark"):
            self._patch(dataset, attr, self._timed(
                getattr(dataset, attr), lambda *a, n=attr, **k: f"dataset.{n}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Phase:
    """The spans and collections of one set-up or one round."""

    def __init__(self, spans: list[Span], gc_seconds: float, gc_collections: int):
        self.spans = spans
        self.gc_seconds = gc_seconds
        self.gc_collections = gc_collections

    def total(self, prefix: str) -> float:
        """Seconds in spans whose name starts with ``prefix``."""
        return sum(s.end - s.start for s in self.spans if s.name.startswith(prefix))

    def size(self, prefix: str) -> int:
        return sum(s.size for s in self.spans if s.name.startswith(prefix))

    def durations(self, prefix: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name.startswith(prefix)]

    def self_time(self, name: str, exclude: tuple[str, ...]) -> float:
        """Duration of ``name`` spans minus the excluded spans inside them."""
        inside = 0.0
        for s in self.spans:
            if not s.name.startswith(exclude):
                continue
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is not None:
                inside += s.end - s.start
        return self.total(name) - inside
