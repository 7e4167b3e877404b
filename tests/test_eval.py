import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pbselect.dataset import NO_SOLUTION, TEST, TRAIN, build_dataset, split_by_benchmark
from pbselect.eval import (
    CLASSES,
    DegeneratePortfolioError,
    EvalContext,
    breakdown_table,
    context_from_trajectories,
    evaluate_selector,
    m_hat,
    pick_sbs,
)
from pbselect.grid import make_grid
from pbselect.learners import train_model
from pbselect.runner import RunArchive, Trajectory

from gen import SOLVERS4, random_mini_archive, synthetic_corpus, synthetic_instance_text
from oracles import (
    oracle_bounds,
    oracle_label,
    oracle_m_hat,
    oracle_metric,
    oracle_normalize,
    oracle_pairs,
    oracle_sample,
)
from test_runner import held_samples


def _traj(events):
    return Trajectory("s", "i", tuple(events))


def _bounded(lo, hi):
    """Events whose values span exactly [lo, hi]; none if lo is None."""
    if lo is None:
        return ()
    return ((0.5, hi), (0.6, lo)) if lo != hi else ((0.5, lo),)


def _normalized(cases, grid=make_grid(2, 10.0, 1.0)):
    """Normalized value of each (o, lo, hi) case: solver a holds o at every
    timestep of an instance where solver b's events span [lo, hi]."""
    trajs = {
        f"i{n}": {"a": _traj(() if o is None else ((0.5, o),)), "b": _traj(_bounded(lo, hi))}
        for n, (o, lo, hi) in enumerate(cases)
    }
    return context_from_trajectories(grid, ["a", "b"], trajs).values[:, 0, 0].tolist()


def _metric(values, lo=10, hi=20):
    """Cumulative metric of solver a's ``values``, one per timestep, on an
    instance normalized to [lo, hi] where solver b is always feasible.  No
    event list samples to a value followed by None, so the context is
    built from its arrays."""
    a = [2.0 if v is None else (v - lo) / (hi - lo) for v in values]
    ctx = EvalContext(
        make_grid(len(values), 100.0, 1.0), ["a", "b"], ["i"],
        np.array([[[x, 1.0] for x in a]]),
        np.array([[[-1 if v is None else 0, 1] for v in values]]),
    )
    return ctx.metric(ctx.values[:, :, 0])


def _pairs(ctx):
    """Evaluated (instance, timestep) pairs in instance-then-timestep order."""
    return [(ctx.instance_ids[i], j) for i, j in np.argwhere(ctx.evaluated).tolist()]


def test_normalize_branches():
    assert _normalized([(15, 10, 20), (10, 10, 20), (20, 10, 20)]) == [0.5, 0.0, 1.0]
    assert _normalized([(7, 7, 7)]) == [0.0]
    assert _normalized([(None, 10, 20)]) == [2.0]


def test_normalize_codomain_fuzz():
    rng = random.Random(2)
    cases = []
    for _ in range(20000):
        lo = rng.randint(-1000, 1000)
        hi = lo + rng.randint(0, 2000)
        o = None if rng.random() < 0.2 else rng.randint(lo, hi)
        cases.append((o, lo, hi))
    for v, (o, lo, hi) in zip(_normalized(cases), cases):
        assert v == 2.0 or 0.0 <= v <= 1.0
        assert v == float(oracle_normalize(o, lo, hi))


def test_cumulative_metric_examples():
    assert _metric([10, 10]) == 0.0
    assert _metric([None, None, None]) == 6.0
    assert _metric([15, None]) == 2.5
    grid = make_grid(2, 100.0, 1.0)
    ctx = context_from_trajectories(grid, ["a"], {"i": {"a": _traj(((0.5, 10),))}})
    with pytest.raises(IndexError):
        ctx.metric(np.zeros((1, 1)))


def test_m_hat_examples():
    assert m_hat(2.0, 6.0, 2.0) == 0.0
    assert m_hat(6.0, 6.0, 2.0) == 1.0
    assert m_hat(5.0, 6.0, 2.0) == 0.75
    with pytest.raises(DegeneratePortfolioError):
        m_hat(1.0, 2.0, 2.0)


def test_compute_bounds_spans_all_events():
    grid = make_grid(3, 100.0, 1.0)
    trajs = {"a": _traj([(0.5, 9), (50.0, 2)]), "b": _traj([(2.0, 30)])}
    ctx = context_from_trajectories(grid, ["a", "b"], {"i": trajs})
    # bounds (2, 30): a holds 9, 9, 2 and b nothing, 30, 30
    assert ctx.values[0].T.tolist() == [[7 / 28, 7 / 28, 0.0], [2.0, 1.0, 1.0]]
    empty = context_from_trajectories(grid, ["a"], {"i": {"a": _traj([])}})
    assert empty.values.tolist() == [[[2.0]] * 3]
    assert not empty.evaluated.any()


def _ranks(values):
    return np.array([-1 if v is None else v for v in values])


def _breakdown(values, best):
    """One policy's counts: the row sums of the table of ``values`` against
    themselves, which are its column sums too."""
    table = breakdown_table(_ranks(values), _ranks(values), _ranks(best))
    assert table.sum(axis=1).tolist() == table.sum(axis=0).tolist()
    return dict(zip(CLASSES, table.sum(axis=1).tolist()))


def test_breakdown_table_cases():
    best = [5, 7, None, 2]
    assert _breakdown([5, 7, None, 2], best) == {"best": 3, "non_best": 0, "none": 1}
    assert _breakdown([None, None, None, None], best) == {"best": 0, "non_best": 0, "none": 4}
    counts = _breakdown([5, 9, None, None], best)
    assert sum(counts.values()) == 4
    # the SBS holds (best, non_best, none, none), the selector (non_best, best, best, none)
    table = breakdown_table(_ranks([5, 9, None, None]), _ranks([6, 7, 1, None]), _ranks([5, 7, 1, 2]))
    assert table.tolist() == [[0, 1, 0], [1, 0, 0], [1, 0, 1]]


# --- oracle equivalence on random mini-archives ----------------------------------


def _close(a, b):
    return math.isclose(a, float(b), rel_tol=1e-12, abs_tol=1e-12)


def test_metrics_match_bruteforce_oracle():
    rng = random.Random(99)
    archives = 0
    while archives < 150:
        grid, order, events, trajs, ctx = random_mini_archive(rng)
        bounds = {iid: oracle_bounds(events[iid].values()) for iid in events}
        pairs = oracle_pairs(events, order, grid.points)
        assert _pairs(ctx) == pairs
        if not pairs:
            continue
        archives += 1
        pair_bounds = [bounds[iid] for iid, _ in pairs]
        # per-solver cumulative metric
        m_s = {}
        for s, sid in enumerate(order):
            values = [oracle_sample(events[iid][sid], grid.points[j]) for iid, j in pairs]
            m_s[sid] = oracle_metric(values, pair_bounds)
            assert _close(ctx.metric(ctx.values[:, :, s]), m_s[sid])
        # virtual best
        vbs_values = []
        for iid, j in pairs:
            feasible = [
                v for sid in order
                if (v := oracle_sample(events[iid][sid], grid.points[j])) is not None
            ]
            vbs_values.append(min(feasible))
        m_vbs = oracle_metric(vbs_values, pair_bounds)
        assert _close(ctx.metric(ctx.values.min(axis=2)), m_vbs)
        # selector policy: per-pair winner by the label rule
        vocab = order + [NO_SOLUTION]
        labels = np.full(ctx.evaluated.shape, len(order))
        for iid, j in pairs:
            candidates = [
                (sid, oracle_sample(events[iid][sid], grid.points[j]),
                 _achievement(events[iid][sid], grid.points[j]))
                for sid in order
            ]
            labels[ctx.instance_ids.index(iid), j] = vocab.index(oracle_label(candidates))
        chosen, _ = ctx.choose(labels)
        oracle_values = [
            None if vocab[label] == NO_SOLUTION
            else oracle_sample(events[iid][vocab[label]], grid.points[j])
            for (iid, j), label in zip(pairs, labels[ctx.evaluated].tolist())
        ]
        assert chosen[ctx.evaluated].tolist() == [
            float(oracle_normalize(v, *b)) for v, b in zip(oracle_values, pair_bounds)
        ]
        m_ms = oracle_metric(oracle_values, pair_bounds)
        assert _close(ctx.metric(chosen), m_ms)
        # gap ratio for a fixed non-SBS solver policy
        sbs_id, impl_m_s = pick_sbs(ctx)
        assert min(m_s, key=lambda s: (m_s[s], order.index(s))) == sbs_id
        if len(order) > 1 and m_s[sbs_id] != m_vbs:
            other = next(s for s in order if s != sbs_id)
            values = [oracle_sample(events[iid][other], grid.points[j]) for iid, j in pairs]
            got = m_hat(ctx.metric(ctx.values[:, :, order.index(other)]), impl_m_s[sbs_id],
                        ctx.metric(ctx.values.min(axis=2)))
            want = oracle_m_hat(oracle_metric(values, pair_bounds), m_s[sbs_id], m_vbs)
            assert _close(got, want)


def _achievement(events, t):
    at = None
    for et, _ in events:
        if et <= t:
            at = et
    return at


def test_vbs_and_sbs_anchor_exactly():
    rng = random.Random(123)
    checked = 0
    while checked < 60:
        grid, order, events, trajs, ctx = random_mini_archive(rng)
        if not ctx.evaluated.any():
            continue
        sbs_id, m_s = pick_sbs(ctx)
        m_vbs = ctx.metric(ctx.values.min(axis=2))
        if m_s[sbs_id] <= m_vbs:
            continue  # degenerate portfolio: gap undefined
        checked += 1
        # VBS policy: pick an argmin solver per pair
        labels = np.full(ctx.evaluated.shape, len(order))
        for iid, j in _pairs(ctx):
            sampled = {sid: held_samples(trajs[iid][sid].events, grid)[j] for sid in order}
            best_sid = min((sid for sid in order if sampled[sid] is not None), key=sampled.get)
            labels[ctx.instance_ids.index(iid), j] = order.index(best_sid)
        assert m_hat(ctx.metric(ctx.choose(labels)[0]), m_s[sbs_id], m_vbs) == 0.0
        # SBS policy: always the single best solver
        sbs_labels = np.full(ctx.evaluated.shape, order.index(sbs_id))
        assert m_hat(ctx.metric(ctx.choose(sbs_labels)[0]), m_s[sbs_id], m_vbs) == 1.0


def test_overhead_never_improves_policy_value():
    rng = random.Random(31)
    for _ in range(100):
        grid, order, events, trajs, ctx = random_mini_archive(rng)
        if not ctx.evaluated.any():
            continue
        labels = np.full(ctx.evaluated.shape, rng.randrange(len(order) + 1))
        plain = ctx.metric(ctx.choose(labels)[0])
        for oh in (0.0, 0.5, 3.0, 1000.0):
            overheads = np.full(len(ctx.instance_ids), oh)
            shifted = ctx.metric(ctx.choose(labels, overheads)[0])
            assert shifted >= plain - 1e-12


def test_overhead_below_first_grid_point_is_undefined():
    grid = make_grid(3, 100.0, 1.0)
    events = ((0.5, 4),)
    traj = Trajectory("a", "i", events)
    ctx = context_from_trajectories(grid, ["a"], {"i": {"a": traj}})
    labels = np.zeros((1, 3), dtype=np.intp)
    # nothing fits before t_0 once the overhead is spent: all undefined
    values, ranks = ctx.choose(labels, np.array([99.5]))
    assert values.tolist() == [[2.0, 2.0, 2.0]] and ranks.tolist() == [[-1, -1, -1]]
    # with 99.0 the last pair exactly fits t_0 + overhead <= 100
    values, ranks = ctx.choose(labels, np.array([99.0]))
    assert values.tolist() == [[2.0, 2.0, 0.0]] and ranks.tolist() == [[-1, -1, 0]]


def test_pick_sbs_pinned_and_auto():
    grid = make_grid(2, 10.0, 1.0)

    def mk(events, sid):
        ev = tuple(events)
        return Trajectory(sid, "i", ev)

    trajs = {"i": {"a": mk([(0.5, 10)], "a"), "b": mk([(0.5, 5)], "b")}}
    ctx = context_from_trajectories(grid, ["a", "b"], trajs)
    auto_id, m_s = pick_sbs(ctx)
    assert auto_id == "b"
    pinned_id, _ = pick_sbs(ctx, "a")
    assert pinned_id == "a"
    with pytest.raises(ValueError):
        pick_sbs(ctx, "zzz")


# --- end-to-end evaluation against the oracles -----------------------------------


class _FixedModel:
    """A stand-in for a trained model: a fixed label rule over feature rows.

    With the basic schema a row is (constraints, variables, timestep index),
    and the rule ``(constraints + timestep) % (solvers + 1)`` also picks
    NO_SOLUTION (the last label).
    """

    def __init__(self, ds):
        self.vocabulary = ds.vocabulary()
        self.schema, self.encoding = ds.schema, ds.encoding
        self.params = {"grid": ds.grid.params()}

    def label(self, row):
        return (int(row[0]) + int(row[-1])) % len(self.vocabulary)

    def predict_batch(self, X):
        return np.array([self.label(row) for row in np.asarray(X)], dtype=np.intp)

    def predict_values(self, row):
        return self.label(row)


def _constraints(path):
    return int(re.search(r"#constraint= (\d+)", Path(path).read_text()).group(1))


def _oracle_report(archive, order, test, overheads):
    """Every figure of an EvalReport, computed from the recorded events alone.

    ``test`` maps each test instance to its OPB path; ``overheads`` maps it
    to the seconds charged before its solver starts.  Returns exact
    fractions for the metrics, integer counts and the per-timestep series.
    """
    points = archive.grid.points
    vocab = order + [NO_SOLUTION]
    events = {iid: {sid: archive.read_trajectory(iid, sid).events for sid in order} for iid in test}
    bounds = {iid: oracle_bounds(events[iid].values()) for iid in test}
    pairs = oracle_pairs(events, order, points)

    def value(iid, sid, j):
        return None if sid == NO_SOLUTION or j is None else oracle_sample(events[iid][sid], points[j])

    def shifted(iid, j):
        fits = [k for k, t in enumerate(points) if t <= points[j] - overheads[iid]]
        return fits[-1] if fits else None

    def choice(iid, j):
        return vocab[(_constraints(test[iid]) + j) % len(vocab)]

    def metric(fn, subset=pairs):
        return oracle_metric([fn(iid, j) for iid, j in subset], [bounds[iid] for iid, _ in subset])

    def best(iid, j):
        return min(v for sid in order if (v := value(iid, sid, j)) is not None)

    policies = {
        "plain": lambda iid, j: value(iid, choice(iid, j), j),
        "overhead": lambda iid, j: value(iid, choice(iid, j), shifted(iid, j)),
        "vbs": best,
    }
    for sid in order:
        policies[sid] = lambda iid, j, sid=sid: value(iid, sid, j)
    m = {name: metric(fn) for name, fn in policies.items()}
    sbs = min(order, key=lambda sid: (m[sid], order.index(sid)))

    series = []
    for j in sorted({j for _, j in pairs}):
        at_j = [p for p in pairs if p[1] == j]
        s, v = metric(policies[sbs], at_j), metric(best, at_j)
        if s <= v:
            series.append((j, None, None))
        else:
            series.append((j, (metric(policies["plain"], at_j) - v) / (s - v),
                           (metric(policies["overhead"], at_j) - v) / (s - v)))

    def breakdown(fn):
        got = [(fn(iid, j), best(iid, j)) for iid, j in pairs]
        return (sum(g == b for g, b in got), sum(g is not None and g != b for g, b in got),
                sum(g is None for g, _ in got))

    def pair_class(fn, iid, j):
        v = fn(iid, j)
        return 2 if v is None else int(v != best(iid, j))

    joint = [[0] * 3 for _ in CLASSES]
    for iid, j in pairs:
        joint[pair_class(policies[sbs], iid, j)][pair_class(policies["plain"], iid, j)] += 1

    confusion = [[0] * len(vocab) for _ in vocab]
    for iid in test:
        for j, t in enumerate(points):
            candidates = [(sid, oracle_sample(events[iid][sid], t), _achievement(events[iid][sid], t))
                          for sid in order]
            confusion[vocab.index(oracle_label(candidates))][vocab.index(choice(iid, j))] += 1
    return {
        "m": m,
        "sbs": sbs,
        "m_hat": oracle_m_hat(m["plain"], m[sbs], m["vbs"]),
        "m_hat_overhead": oracle_m_hat(m["overhead"], m[sbs], m["vbs"]),
        "n_pairs": len(pairs),
        "series": series,
        "breakdown": joint,
        "margins": {"sbs": breakdown(policies[sbs]), "selector": breakdown(policies["plain"])},
        "sbs_none_test_pairs": sum(value(iid, sbs, j) is None for iid in test for j in range(len(points))),
        "confusion": confusion,
    }


def _check_report(report, want, vocab):
    for sid in vocab[:-1]:
        assert _close(report.m_s[sid], want["m"][sid])
    assert report.sbs_id == want["sbs"]
    assert _close(report.m_sbs, want["m"][want["sbs"]])
    assert _close(report.m_vbs, want["m"]["vbs"])
    assert _close(report.m_ms, want["m"]["plain"])
    assert _close(report.m_ms_overhead, want["m"]["overhead"])
    assert _close(report.m_hat, want["m_hat"])
    assert _close(report.m_hat_overhead, want["m_hat_overhead"])
    assert report.n_pairs == want["n_pairs"]

    tables = report.tables()
    assert list(tables) == ["summary", "confusion", "m_hat_timesteps", "breakdown"]
    header, rows = tables["m_hat_timesteps"]
    assert header == ["timestep", "m_hat", "m_hat_overhead"]
    assert len(rows) == len(want["series"])
    for (j, *ratios), (want_j, plain, ov) in zip(rows, want["series"]):
        assert j == want_j
        for ratio, exact in zip(ratios, (plain, ov)):
            assert (ratio is None) if exact is None else _close(ratio, exact)

    assert report.breakdown.tolist() == want["breakdown"]
    assert tables["breakdown"] == (
        ["sbs\\selector", "best", "non_best", "none"],
        [[c, *counts] for c, counts in zip(CLASSES, want["breakdown"])],
    )
    # its margins are the SBS's and the selector's own counts
    assert tuple(report.breakdown.sum(axis=1).tolist()) == want["margins"]["sbs"]
    assert tuple(report.breakdown.sum(axis=0).tolist()) == want["margins"]["selector"]
    assert tables["summary"] == (["metric", "value"], [
        ("evaluated_pairs", report.n_pairs), ("test_rows", report.n_rows), ("sbs", report.sbs_id),
        *((f"m[{sid}]", report.m_s[sid]) for sid in vocab[:-1]), ("m_vbs", report.m_vbs),
        ("m_sbs", report.m_sbs), ("m_ms", report.m_ms), ("m_ms_overhead", report.m_ms_overhead),
        ("m_hat", report.m_hat), ("m_hat_overhead", report.m_hat_overhead), ("accuracy", report.accuracy),
        ("sbs_none_pairs", want["margins"]["sbs"][2]), ("sbs_none_test_pairs", want["sbs_none_test_pairs"]),
        ("rescued_pairs", want["breakdown"][2][0] + want["breakdown"][2][1]),
    ])
    assert tables["confusion"] == (
        ["true\\predicted", *vocab], [[label, *counts] for label, counts in zip(vocab, want["confusion"])]
    )
    total = sum(map(sum, want["confusion"]))
    assert report.n_rows == total
    hits = sum(want["confusion"][k][k] for k in range(len(vocab)))
    assert _close(report.accuracy, Fraction(hits, total))


def _overheads_inside_intervals(grid, overheads, margin=0.05):
    """Each t_j - overhead lies at least ``margin`` seconds from every grid
    point, so the microseconds of the timed prediction cannot move it."""
    return all(
        abs(t - oh - p) >= margin for oh in overheads for t in grid.points for p in grid.points
    )


def test_evaluate_selector_matches_oracles(tmp_path):
    grid = make_grid(12, 1000.0, 1.0)
    order = SOLVERS4
    archive = synthetic_corpus(tmp_path, random.Random(5), 24, grid, noise=0.2)
    # one more instance where s0 starts late, s1 later and s2/s3 never do
    late = tmp_path / "instances" / "late" / "late.opb"
    late.parent.mkdir(parents=True)
    late.write_text(synthetic_instance_text(9, 14))
    archive.register_instance("late__late", "late", str(late))
    late_events = {"s0": ((5.0, 40), (300.0, 31)), "s1": ((90.0, 35),), "s2": (), "s3": ()}
    for sid, ev in late_events.items():
        archive.write_trajectory(Trajectory(sid, "late__late", ev))

    ds = build_dataset(archive, "basic", order)
    paths = {iid: path for iid, _, path in archive.instances()}
    test = {iid: paths[iid] for k, iid in enumerate(sorted(paths)) if k % 3 != 0 or iid == "late__late"}
    ds.split.update({iid: TEST if iid in test else TRAIN for iid in paths})
    choices = (0.37, 5.3, 60.0)
    overheads = {iid: choices[k % 3] for k, iid in enumerate(sorted(test))}
    assert _overheads_inside_intervals(grid, choices)
    ds.feature_seconds.update(overheads)

    report = evaluate_selector(_FixedModel(ds), ds, archive)
    want = _oracle_report(archive, order, test, overheads)
    assert want["margins"]["selector"][2] > 0  # the rule picks NO_SOLUTION somewhere
    _check_report(report, want, order + [NO_SOLUTION])


def test_objectives_beyond_int64(tmp_path):
    """Objectives near 2**70 with ranges wider than 2**53: labels and metrics
    stay exact.  As floats, 2**70 + 1 and 2**70 + 2 are equal and 3 / 2**60 is
    lost next to 2**70; as int64 they overflow."""
    grid = make_grid(4, 1000.0, 1.0)
    order = ["A", "B", "C"]
    big = 2**70
    recorded = {
        "wide": {"A": ((0.5, big + 5), (50.0, big + 1)),
                 "B": ((0.2, big + 5), (5.0, big + 2)),
                 "C": ((0.7, big + 2**60), (500.0, big))},
        "narrow": {"A": ((0.5, -big + 7),), "B": ((0.5, -big + 2**55), (3.0, -big + 6)), "C": ()},
    }
    archive = RunArchive(tmp_path / "archive", grid)
    paths = {}
    for n, (name, per_solver) in enumerate(recorded.items()):
        path = tmp_path / "b0" / f"{name}.opb"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(synthetic_instance_text(5 + n, 6))
        iid = f"b0__{name}"
        paths[iid] = str(path)
        archive.register_instance(iid, "b0", str(path))
        for sid, ev in per_solver.items():
            archive.write_trajectory(Trajectory(sid, iid, ev))

    ds = build_dataset(archive, "basic", order)
    for r in ds.rows:
        events = recorded[r.instance_id.split("__")[1]]
        t = grid.points[r.timestep_index]
        candidates = [(sid, oracle_sample(events[sid], t), _achievement(events[sid], t)) for sid in order]
        assert r.label == oracle_label(candidates)
    # as floats the 10 s and 100 s pairs would tie and go to the earlier achiever
    assert [r.label for r in ds.rows] == ["A", "B", "B", "B"] + ["B", "B", "A", "C"]

    ds.split.update({iid: TEST for iid in paths})
    overheads = {iid: 0.37 for iid in paths}
    assert _overheads_inside_intervals(grid, overheads.values())
    ds.feature_seconds.update(overheads)
    report = evaluate_selector(_FixedModel(ds), ds, archive)
    want = _oracle_report(archive, order, paths, overheads)
    assert 0 < want["m"]["vbs"] < Fraction(1, 2**50)
    _check_report(report, want, order + [NO_SOLUTION])


def test_breakdown_counts_pairs_where_the_sbs_has_no_solution(tmp_path):
    """The pinned SBS A has no solution at four pairs where B or C holds
    one; at one of them the selector picks the best value there, at another a
    worse one.  Per instance: (constraints, {solver: events}), with the
    fixed rule's choices at t = 1, 10, 100 in the comment."""
    grid = make_grid(3, 100.0, 1.0)
    order = ["A", "B", "C"]
    recorded = {
        "x": (4, {"A": ((50.0, 1),), "B": ((0.5, 9),), "C": ((0.5, 6),)}),  # A, B, C
        "y": (5, {"A": ((5.0, 3),), "B": ((0.5, 4),), "C": ((0.5, 8),)}),  # B, C, none
        "z": (6, {"A": ((0.5, 5),), "B": (), "C": ((0.5, 7), (50.0, 2))}),  # C, none, A
        "w": (7, {"A": ((50.0, 4),), "B": ((5.0, 6),), "C": ()}),  # none, A, B
    }
    archive = RunArchive(tmp_path / "archive", grid)
    for name, (constraints, per_solver) in recorded.items():
        path = tmp_path / "b0" / f"{name}.opb"
        path.parent.mkdir(exist_ok=True)
        path.write_text(synthetic_instance_text(constraints, 3))
        archive.register_instance(f"b0__{name}", "b0", str(path))
        for sid, ev in per_solver.items():
            archive.write_trajectory(Trajectory(sid, f"b0__{name}", ev))
    ds = build_dataset(archive, "basic", order)
    ds.split.update(dict.fromkeys(ds.instance_ids, TEST))

    report = evaluate_selector(_FixedModel(ds), ds, archive, sbs="A")
    # (SBS, selector) classes; w holds nothing at t = 1, so 11 pairs count
    # x: (none, none), (none, non_best), (best, non_best)
    # y: (none, best), (best, non_best), (best, none)
    # z: (best, non_best), (best, none), (non_best, non_best)
    # w: -, (none, none), (best, non_best)
    assert report.n_pairs == 11
    assert report.breakdown.tolist() == [[0, 4, 2], [0, 1, 0], [1, 1, 2]]
    assert report.tables()["breakdown"][1][2] == ["none", 1, 1, 2]
    # the paper's count: of the 5 test pairs where A holds nothing (w at t = 1
    # is not evaluated), the selector rescues 2
    summary = dict(report.tables()["summary"][1])
    assert (summary["sbs_none_pairs"], summary["sbs_none_test_pairs"], summary["rescued_pairs"]) == (4, 5, 2)


def _split_corpus(root, grid, n_instances=40):
    """The seed-1 synthetic corpus on ``grid``, built with the basic schema and split with seed 3."""
    archive = synthetic_corpus(root, random.Random(1), n_instances, grid)
    return archive, split_by_benchmark(build_dataset(archive, "basic", SOLVERS4), 3)


def test_evaluate_refuses_an_archive_recorded_on_another_grid(tmp_path):
    archive, ds = _split_corpus(tmp_path / "coarse", make_grid(30, 100.0, 1.0))
    other, _ = _split_corpus(tmp_path / "fine", make_grid(40, 3600.0, 0.01))
    model = train_model(ds, "rf")
    evaluate_selector(model, ds, archive)
    with pytest.raises(ValueError, match=r"archive grid .*'count': 40.* differs from the dataset grid .*'count': 30"):
        evaluate_selector(model, ds, other)


@pytest.mark.parametrize("spoil, message", [
    (lambda model, ds: ds.split.clear(), "dataset has no train/test split yet"),
    (lambda model, ds: model.vocabulary.reverse(), "model vocabulary does not match the dataset portfolio"),
    (lambda model, ds: setattr(model, "schema", "linear"), "model schema/encoding does not match the dataset"),
    (lambda model, ds: setattr(model, "encoding", "seconds"),
     "model schema/encoding does not match the dataset"),
    (lambda model, ds: model.params.update(grid=make_grid(4, 10.0, 1.0).params()),
     "model was trained on a different timestep grid"),
    (lambda model, ds: ds.split.update(dict.fromkeys(ds.split, TRAIN)), "dataset has no test rows"),
])
def test_evaluate_selector_refusals(tmp_path, spoil, message):
    archive, ds = _split_corpus(tmp_path, make_grid(6, 100.0, 1.0), n_instances=10)
    model = _FixedModel(ds)
    spoil(model, ds)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_selector(model, ds, archive)
