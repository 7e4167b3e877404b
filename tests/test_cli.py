import json
import random

from pbselect.cli import main
from pbselect.dataset import read_csv, win_summary
from pbselect.grid import make_grid

from gen import SOLVERS4, synthetic_corpus


def test_offline_pipeline_through_the_cli(tmp_path, capsys):
    archive = synthetic_corpus(tmp_path, random.Random(3), 30, make_grid(9, 100.0, 1.0))
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({"solvers": [{"id": s, "command": "true"} for s in SOLVERS4]}))
    data, model, out = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "out"
    common = ["--portfolio", str(portfolio)]
    steps = [
        ["build-dataset", "--archive", str(archive.root), "--schema", "basic", "--out", str(data)] + common,
        ["split", "--dataset", str(data), "--seed", "4", "--train-fraction", "0.5"],
        ["train", "--dataset", str(data), "--family", "knn", "--out", str(model)],
        ["evaluate", "--model", str(model), "--dataset", str(data), "--archive", str(archive.root),
         "--out-dir", str(out / "eval")],
        ["summary", "--dataset", str(data), "--out-dir", str(out / "summary")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    printed = capsys.readouterr().out
    assert "270 rows, 0 instances skipped" in printed
    assert "m_hat (overhead)" in printed

    summary = win_summary(read_csv(data))
    assert (out / "summary" / "wins_by_timestep.csv").read_text() == summary.timestep_csv()
    assert (out / "summary" / "wins_by_benchmark.csv").read_text() == summary.benchmark_csv()
    for name in ("confusion.csv", "m_hat_timesteps.csv", "breakdown.csv"):
        assert (out / "eval" / name).read_text().startswith(("true", "timestep", "policy"))
