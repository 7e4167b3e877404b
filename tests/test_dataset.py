import math
import random
import time

import pytest

from pbselect import dataset
from pbselect.dataset import (
    NO_SOLUTION,
    build_dataset,
    read_csv,
    split_by_benchmark,
    win_summary,
    winner_labels,
    write_csv,
)
from pbselect.features import feature_names
from pbselect.grid import make_grid
from pbselect.runner import RunArchive, Trajectory, instance_id_for

from gen import random_events
from oracles import oracle_label

ORDER = ["A", "B", "C"]


def label_pair(samples, solver_order):
    """Winner label of one timestep: ``samples`` maps solver id to its
    (sampled objective, achievement time)."""
    per_solver = [samples.get(sid, (None, None)) for sid in solver_order]
    index = winner_labels([(v,) for v, _ in per_solver], [[at] for _, at in per_solver])
    return (solver_order + [NO_SOLUTION])[index[0]]


def test_label_strict_minimum():
    samples = {"A": (7, 2.0), "B": (9, 0.5)}
    assert label_pair(samples, ["A", "B"]) == "A"


def test_label_tie_breaks_to_earliest_achiever():
    samples = {"A": (7, 2.0), "B": (7, 1.5)}
    assert label_pair(samples, ["A", "B"]) == "B"


def test_label_no_solution():
    assert label_pair({"A": (None, None), "B": (None, None)}, ["A", "B"]) == NO_SOLUTION


def test_label_residual_tie_uses_declaration_order():
    samples = {"B": (7, 1.5), "A": (7, 1.5)}
    assert label_pair(samples, ["A", "B"]) == "A"
    assert label_pair(samples, ["B", "A"]) == "B"


def test_label_matches_bruteforce_oracle():
    rng = random.Random(17)
    for _ in range(2000):
        candidates = []
        samples = {}
        for sid in ORDER:
            if rng.random() < 0.3:
                value, at = None, None
            else:
                value = rng.randint(0, 3)  # small range to force ties
                at = rng.choice([0.5, 1.0, 1.5])
            candidates.append((sid, value, at))
            samples[sid] = (value, at)
        assert label_pair(samples, ORDER) == oracle_label(candidates)


# --- dataset building ----------------------------------------------------------


def _write_instance(tmp_path, bench, name):
    p = tmp_path / bench / f"{name}.opb"
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("* #variable= 2 #constraint= 1\nmin: +1 x1 -2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n")
    return p


def _synthetic_archive(tmp_path, grid, events_by_pair, instance_paths):
    """Write trajectories directly, bypassing live solver runs."""
    archive = RunArchive(tmp_path / "arch", grid)
    for (iid, bench, path) in instance_paths:
        archive.register_instance(iid, bench, str(path))
    for (iid, sid), events in events_by_pair.items():
        archive.write_trajectory(Trajectory(solver_id=sid, instance_id=iid, events=tuple(events)))
    return archive


def test_build_dataset_rows_and_labels(tmp_path):
    grid = make_grid(4, 1000.0, 1.0)
    paths = []
    for i in range(3):
        p = _write_instance(tmp_path, "b0", f"i{i}")
        paths.append((instance_id_for(p, "b0"), "b0", p))
    events = {}
    for iid, _, _ in paths:
        events[(iid, "A")] = [(0.5, 10), (500.0, 2)]
        events[(iid, "B")] = [(2.0, 8)]
    archive = _synthetic_archive(tmp_path, grid, events, paths)
    ds = build_dataset(archive, "nonlinear", ["A", "B"])
    assert len(ds.rows) == 3 * 4
    assert ds.rows[0].features.timestep == 0.0
    assert [r.timestep_index for r in ds.rows[:4]] == [0, 1, 2, 3]
    # A holds 10 vs B nothing at t=1; B 8 beats A 10 at t=10,100; A 2 wins at 1000
    labels = [r.label for r in ds.rows[:4]]
    assert labels == ["A", "B", "B", "A"]
    assert all(iid in ds.feature_seconds for iid, _, _ in paths)


def test_feature_seconds_charge_parsing_like_solve(tmp_path, monkeypatch):
    # solve charges parse + features before predicting; so must the dataset
    grid = make_grid(3, 100.0, 1.0)
    p = _write_instance(tmp_path, "b0", "slow")
    iid = instance_id_for(p, "b0")
    events = {(iid, "A"): [(0.5, 3)], (iid, "B"): []}
    archive = _synthetic_archive(tmp_path, grid, events, [(iid, "b0", p)])
    parse = dataset.parse_opb_file

    def slow_parse(*args, **kwargs):
        time.sleep(0.05)
        return parse(*args, **kwargs)

    monkeypatch.setattr(dataset, "parse_opb_file", slow_parse)
    ds = build_dataset(archive, "basic", ["A", "B"])
    assert ds.feature_seconds[iid] >= 0.05


def test_build_dataset_single_dominator(tmp_path):
    grid = make_grid(5, 100.0, 1.0)
    p = _write_instance(tmp_path, "b0", "solo")
    iid = instance_id_for(p, "b0")
    events = {(iid, "A"): [(0.5, 3)], (iid, "B"): []}
    archive = _synthetic_archive(tmp_path, grid, events, [(iid, "b0", p)])
    ds = build_dataset(archive, "basic", ["A", "B"])
    assert [r.label for r in ds.rows] == ["A"] * 5


def test_build_dataset_no_solution_prefix(tmp_path):
    grid = make_grid(4, 1000.0, 1.0)
    p = _write_instance(tmp_path, "b0", "late")
    iid = instance_id_for(p, "b0")
    events = {(iid, "A"): [(50.0, 4)], (iid, "B"): []}
    archive = _synthetic_archive(tmp_path, grid, events, [(iid, "b0", p)])
    ds = build_dataset(archive, "basic", ["A", "B"])
    assert [r.label for r in ds.rows] == [NO_SOLUTION, NO_SOLUTION, "A", "A"]


def test_build_dataset_skips_problem_instances(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    good = _write_instance(tmp_path, "b0", "good")
    bad = tmp_path / "b0" / "bad.opb"
    bad.write_text("+1 zz >= 1 ;\n")
    noobj = tmp_path / "b0" / "noobj.opb"
    noobj.write_text("* #variable= 1 #constraint= 1\n+1 x1 >= 1 ;\n")
    latin1 = tmp_path / "b0" / "latin1.opb"
    latin1.write_bytes(b"* caf\xe9\n" + good.read_bytes())
    rows = [
        (instance_id_for(good, "b0"), "b0", good),
        (instance_id_for(bad, "b0"), "b0", bad),
        (instance_id_for(noobj, "b0"), "b0", noobj),
        (instance_id_for(latin1, "b0"), "b0", latin1),
    ]
    events = {}
    for iid, _, _ in rows:
        events[(iid, "A")] = [(0.5, 1)]
    archive = _synthetic_archive(tmp_path, grid, events, rows)
    ds = build_dataset(archive, "nonlinear", ["A"])
    assert len(ds.rows) == 2  # only the good instance
    reasons = dict(ds.skipped)
    assert "unparsable" in reasons["b0__bad"]
    assert reasons["b0__noobj"] == "no objective"
    assert "line 1, column 6: invalid UTF-8 byte 0xe9" in reasons["b0__latin1"]


def test_build_dataset_requires_complete_pairs(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    p = _write_instance(tmp_path, "b0", "i0")
    iid = instance_id_for(p, "b0")
    archive = _synthetic_archive(
        tmp_path, grid, {(iid, "A"): [(0.5, 1)]}, [(iid, "b0", p)]
    )
    ds = build_dataset(archive, "basic", ["A", "B"])
    assert ds.rows == []
    assert ds.skipped == [(iid, "missing trajectory for solver B")]


# --- split ----------------------------------------------------------------------


def _dataset_with_benchmarks(tmp_path, sizes):
    grid = make_grid(2, 10.0, 1.0)
    rows = []
    events = {}
    for b, size in enumerate(sizes):
        for i in range(size):
            p = _write_instance(tmp_path, f"bench{b}", f"i{i}")
            iid = instance_id_for(p, f"bench{b}")
            rows.append((iid, f"bench{b}", p))
            events[(iid, "A")] = [(0.5, 1)]
    archive = _synthetic_archive(tmp_path, grid, events, rows)
    return build_dataset(archive, "basic", ["A"])


def test_split_ratio_and_determinism(tmp_path):
    ds = _dataset_with_benchmarks(tmp_path, [10, 1, 4])
    split = split_by_benchmark(ds, seed=42)
    per_bench = {}
    for r in split.rows:
        per_bench.setdefault(r.benchmark_id, {}).setdefault(split.split[r.instance_id], set()).add(r.instance_id)
    assert len(per_bench["bench0"]["train"]) == 7
    assert len(per_bench["bench0"]["test"]) == 3
    assert len(per_bench["bench1"]["train"]) == 1  # singleton goes to train
    assert "test" not in per_bench["bench1"]
    assert len(per_bench["bench2"]["train"]) == math.ceil(0.7 * 4)
    again = split_by_benchmark(ds, seed=42)
    assert again.split == split.split
    different = split_by_benchmark(ds, seed=43)
    assert different.split != split.split  # overwhelmingly likely


@pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
def test_split_rejects_fraction_outside_unit_interval(tmp_path, fraction):
    ds = _dataset_with_benchmarks(tmp_path, [3])
    with pytest.raises(ValueError, match=f"train fraction {fraction} "):
        split_by_benchmark(ds, seed=1, train_fraction=fraction)


def test_split_never_leaks_instances(tmp_path):
    ds = _dataset_with_benchmarks(tmp_path, [6, 5])
    split = split_by_benchmark(ds, seed=7)
    for r in split.rows:
        assert split.split[r.instance_id] in ("train", "test")
    # split is a function of the instance, not the timestep
    by_instance = {}
    for r in split.rows:
        by_instance.setdefault(r.instance_id, set()).add(split.split[r.instance_id])
    assert all(len(v) == 1 for v in by_instance.values())


# --- win summary and CSV --------------------------------------------------------


def test_win_summary_counts(tmp_path):
    grid = make_grid(4, 1000.0, 1.0)
    p = _write_instance(tmp_path, "b0", "i0")
    iid = instance_id_for(p, "b0")
    events = {(iid, "A"): [(0.5, 10), (500.0, 2)], (iid, "B"): [(2.0, 8)]}
    archive = _synthetic_archive(tmp_path, grid, events, [(iid, "b0", p)])
    ds = build_dataset(archive, "basic", ["A", "B"])
    summary = win_summary(ds)
    assert summary.by_timestep["A"] == [1, 0, 0, 1]
    assert summary.by_timestep["B"] == [0, 1, 1, 0]
    assert summary.by_benchmark["b0"] == {"A": 2, "B": 2}
    csv_text = summary.timestep_csv()
    assert csv_text.splitlines()[0] == "timestep,A,B,NO_SOLUTION"


def test_win_summary_empty_dataset(tmp_path):
    grid = make_grid(3, 10.0, 1.0)
    archive = _synthetic_archive(tmp_path, grid, {}, [])
    ds = build_dataset(archive, "basic", ["A"])
    summary = win_summary(ds)
    assert summary.by_benchmark == {}
    assert sum(summary.by_timestep["A"]) == 0


def _mixed_dataset(tmp_path, encoding):
    """Two benchmarks with varied winners, NO_SOLUTION labels and one
    skipped instance."""
    grid = make_grid(4, 1000.0, 1.0)
    rows, events = [], {}
    for b, size in enumerate([3, 2]):
        for i in range(size):
            p = _write_instance(tmp_path, f"bench{b}", f"i{i}")
            iid = instance_id_for(p, f"bench{b}")
            rows.append((iid, f"bench{b}", p))
            events[(iid, "A")] = [(0.5 + i, 10), (500.0, 2 + b)]
            events[(iid, "B")] = [(2.0 * (i + 1), 8 - i)] if i else []
    bad = tmp_path / "bench0" / "bad.opb"
    bad.write_text("+1 zz >= 1 ;\n")
    rows.append((instance_id_for(bad, "bench0"), "bench0", bad))
    events[(rows[-1][0], "A")] = events[(rows[-1][0], "B")] = [(0.5, 1)]
    archive = _synthetic_archive(tmp_path, grid, events, rows)
    return build_dataset(archive, "nonlinear", ["A", "B"], encoding=encoding)


def test_csv_roundtrip(tmp_path):
    for encoding, seed in (("index", 1), ("seconds", None)):
        ds = _mixed_dataset(tmp_path / encoding, encoding)
        if seed is not None:
            ds = split_by_benchmark(ds, seed=seed)
        assert ds.skipped and len({*ds.labels.ravel().tolist()}) == 3
        out = tmp_path / encoding / "data.csv"
        write_csv(ds, out)
        # two files: a header plus one line per instance, and the sidecar
        assert sorted(f.name for f in out.parent.glob("data.*")) == ["data.csv", "data.meta.json"]
        assert len(out.read_text().splitlines()) == 1 + len(ds.instance_ids)
        again = read_csv(out)
        assert again.instance_ids == ds.instance_ids
        assert again.benchmark_ids == ds.benchmark_ids
        assert again.features.dtype == ds.features.dtype
        assert again.features.tobytes() == ds.features.tobytes()
        assert again.labels.dtype == ds.labels.dtype
        assert again.labels.tobytes() == ds.labels.tobytes()
        assert again.schema == ds.schema
        assert again.encoding == ds.encoding == encoding
        assert again.grid.params() == ds.grid.params()
        assert again.solver_order == ds.solver_order
        assert again.split == ds.split
        assert again.feature_seconds == ds.feature_seconds
        assert again.skipped == ds.skipped
        assert all(isinstance(pair, tuple) for pair in again.skipped)
        assert again.rows == ds.rows


def test_rows_ordered_by_benchmark_instance_timestep(tmp_path):
    ds = _dataset_with_benchmarks(tmp_path, [3, 2])
    keys = [(r.benchmark_id, r.instance_id, r.timestep_index) for r in ds.rows]
    assert keys == sorted(keys)
    pairs = {(r.instance_id, r.timestep_index) for r in ds.rows}
    assert len(pairs) == len(ds.rows)  # each pair appears at most once


def test_winner_labels_reduce_every_timestep_at_once():
    rng = random.Random(5)
    for _ in range(200):
        count = rng.randint(1, 6)
        sampled, achieved = [], []
        for _ in ORDER:
            pairs = [(None, None) if rng.random() < 0.3 else (rng.randint(0, 3), rng.choice([0.5, 1.0]))
                     for _ in range(count)]
            sampled.append(tuple(v for v, _ in pairs))
            achieved.append([at for _, at in pairs])
        want = [
            oracle_label([(sid, sampled[s][j], achieved[s][j]) for s, sid in enumerate(ORDER)])
            for j in range(count)
        ]
        got = winner_labels(sampled, achieved)
        assert [(ORDER + [NO_SOLUTION])[k] for k in got] == want


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_read_csv_rejects_inconsistent_instance_lines(tmp_path):
    ds = split_by_benchmark(_dataset_with_benchmarks(tmp_path, [3]), seed=1)
    out = tmp_path / "data.csv"
    iid = ds.instance_ids[1]
    old_header = "benchmark,instance,timestep,label,split," + ",".join(
        feature_names(ds.schema, with_timestep=False)
    ) + "\n"
    # line 0 is the header, line k + 1 holds instance k
    edits = {
        "old layout": (lambda lines: [old_header] + lines[1:], "run build-dataset again"),
        "short": (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + "\n"] + lines[3:], iid),
        "label": (lambda lines: lines[:2] + [lines[2].replace(",A", ",Z", 1)] + lines[3:], iid),
        "duplicate": (lambda lines: lines[:3] + [lines[2]] + lines[3:], iid),
        "split": (lambda lines: lines[:2] + [lines[2].replace(f"{iid},{ds.split[iid]},", f"{iid},tset,", 1)]
                  + lines[3:], f"{iid} has unknown split part 'tset'"),
    }
    for kind, (edit, match) in edits.items():
        write_csv(ds, out)
        assert read_csv(out).instance_ids == ds.instance_ids
        _rewrite_csv(out, edit)
        with pytest.raises(ValueError, match=match):
            read_csv(out)
