"""The benchmark's tracer patches names of this tree: loading
``perfbench/tracing.py`` and installing it fails when one is renamed or
removed, without running the benchmark."""

import runpy
from pathlib import Path

import numpy as np

from pbselect import opb
from pbselect.dataset import LabeledDataset
from pbselect.grid import make_grid
from pbselect.learners import train_model

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls():
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    tracer.install()
    patched = list(tracer._undo)
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        # 15 rows, as many as KNN's 13 neighbours need
        ds = LabeledDataset(
            instance_ids=list("abcde"), benchmark_ids=["b0"] * 5, features=np.arange(10.0).reshape(5, 2),
            labels=[[0, 1, 1], [1, 0, 2], [0, 0, 1], [1, 1, 0], [2, 1, 0]], schema="basic",
            encoding="index", grid=make_grid(3, 10.0, 1.0), solver_order=["x", "y"],
        )
        with tracer.recording():
            opb.parse_opb("* #variable= 2 #constraint= 1\nmin: +1 x1 ;\n+1 x1 +1 x2 >= 1 ;\n")
            for family in ("rf", "gb", "knn"):
                train_model(ds, family)
        phase = tracer.take()
        assert phase.size("opb.parse") == 3
        # the fit functions are looked up when ``train_model`` runs
        assert [s.name for s in phase.spans if s.name.startswith("learners.fit")] == [
            "learners.fit.rf", "learners.fit.gb", "learners.fit.knn"
        ]
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
