import json
import math
import os
import random
import re
import subprocess
import time

import pytest

from pbselect import runner
from pbselect.grid import make_grid
from pbselect.runner import (
    AdapterError,
    PortfolioConfig,
    RunArchive,
    SolverAdapter,
    Trajectory,
    held_ranks,
    instance_id_for,
    parse_events,
    raw_log_to_text,
    run_adapter,
    run_portfolio,
    run_solver,
    sample_events,
    trajectory_from_text,
    trajectory_to_text,
)

from gen import random_events
from oracles import oracle_sample, raw_log_from_text

GRID2 = make_grid(2, 10.0, 1.0)


def _traj(events, solver="s", instance="i"):
    return Trajectory(solver_id=solver, instance_id=instance, events=tuple(events))


def _held_times(events, grid):
    """Time of the incumbent held at each grid point, None before the first
    event: :func:`held_ranks`' times of the one trajectory."""
    _, times, _ = held_ranks([_traj(events)], grid)
    return [None if math.isnan(t) else t for t in times[:, 0].tolist()]


# --- sampling ----------------------------------------------------------------


def test_sampling_definition():
    events = ((0.5, 12), (2.0, 7))
    assert sample_events(events, GRID2) == (12, 7)


def test_sampling_empty_events():
    assert sample_events((), GRID2) == (None, None)


def test_parse_events_discards_non_improving():
    lines = [(0.1, "o 5"), (0.2, "o 9"), (0.3, "o 4")]
    assert parse_events(lines, "event-stream", 10.0) == ((0.1, 5), (0.3, 4))


def test_parse_events_skips_malformed_and_ignores_chatter(caplog):
    lines = [
        (0.1, "c preprocessing"),
        (0.2, "o not-a-number"),
        (0.3, "o 5"),
        (0.4, "objective 3"),
        (0.5, "s SATISFIABLE"),
    ]
    with caplog.at_level("WARNING"):
        events = parse_events(lines, "event-stream", 10.0)
    assert events == ((0.3, 5),)
    assert any("unparseable" in r.message for r in caplog.records)


def test_parse_events_final_only_keeps_last():
    lines = [(0.1, "o 9"), (0.2, "o 7"), (0.3, "o 5")]
    assert parse_events(lines, "final-only", 10.0) == ((0.3, 5),)


def test_parse_events_drops_past_horizon():
    lines = [(0.1, "o 9"), (11.0, "o 1")]
    assert parse_events(lines, "event-stream", 10.0) == ((0.1, 9),)


def test_sampling_matches_bruteforce_on_random_events():
    rng = random.Random(9)
    grid = make_grid(8, 50.0, 0.5)
    for k in range(300):
        events = random_events(rng, grid.horizon)
        if k % 3 == 0 and events:
            # two lines read in one clock tick share a timestamp, at times a grid point's
            shared = rng.choice([events[0][0], rng.choice(grid.points)])
            times = sorted([shared, shared] + [t for t, _ in events[1:]])
            events = tuple(zip(times, [events[0][1] + 1] + [v for _, v in events]))
        sampled = sample_events(events, grid)
        achieved = _held_times(events, grid)
        for j, t in enumerate(grid.points):
            assert sampled[j] == oracle_sample(events, t)
            # the time of the last event at or before t, by direct scan
            assert achieved[j] == max((et for et, _ in events if et <= t), default=None)


def test_grid_refinement_preserves_shared_points():
    rng = random.Random(10)
    coarse = make_grid(3, 100.0, 1.0)
    fine = make_grid(5, 100.0, 1.0)
    shared = {t: (coarse.points.index(t), fine.points.index(t)) for t in coarse.points if t in fine.points}
    assert len(shared) == 3
    for _ in range(100):
        events = random_events(rng, 100.0)
        sc = sample_events(events, coarse)
        sf = sample_events(events, fine)
        for jc, jf in shared.values():
            assert sc[jc] == sf[jf]


def test_trajectory_monotone_and_defined_suffix():
    rng = random.Random(11)
    grid = make_grid(10, 50.0, 0.5)
    for _ in range(200):
        sampled = sample_events(random_events(rng, grid.horizon), grid)
        seen = False
        prev = None
        for v in sampled:
            if v is None:
                assert not seen  # once defined, stays defined
            else:
                if seen:
                    assert v <= prev
                seen, prev = True, v


def test_achievement_times():
    grid = make_grid(3, 100.0, 1.0)
    assert _held_times(((0.5, 12), (5.0, 7)), grid) == [0.5, 5.0, 5.0]
    assert _held_times((), grid) == [None, None, None]


# --- trajectory and raw-log round-trips ---------------------------------------


def test_trajectory_text_roundtrip():
    grid = make_grid(4, 1000.0, 1.0)
    traj = _traj(((0.25, 10**40), (900.0, -3)))
    again, meta = trajectory_from_text(trajectory_to_text(traj, grid))
    assert again == traj
    assert meta["count"] == 4


def test_raw_log_reproduces_events_exactly():
    rng = random.Random(13)
    grid = make_grid(5, 20.0, 0.1)
    for _ in range(50):
        lines = []
        t = 0.0
        for _ in range(rng.randint(0, 6)):
            t = round(t + rng.uniform(0, 5), 6)
            lines.append((t, rng.choice(["o " + str(rng.randint(-5, 30)), "c noise"])))
        text = raw_log_to_text(lines)
        assert raw_log_from_text(text) == lines
        direct = parse_events(lines, "event-stream", grid.horizon)
        replayed = parse_events(raw_log_from_text(text), "event-stream", grid.horizon)
        assert direct == replayed


# --- live subprocess runs ------------------------------------------------------


def test_run_solver_records_stream(stub_solver, opb_file):
    grid = make_grid(3, 4.0, 0.5)
    adapter = SolverAdapter("fast", stub_solver("0:o 12|0.05:o 7"))
    traj, raw = run_solver(adapter, opb_file, grid, instance_id="toy")
    assert [v for _, v in traj.events] == [12, 7]
    assert sample_events(traj.events, grid) == (7, 7, 7)  # both events land before the 0.5 s point
    assert traj.status == "ok"
    assert parse_events(raw, "event-stream", grid.horizon) == traj.events


def test_run_solver_empty_output(stub_solver, opb_file):
    grid = make_grid(2, 2.0, 0.5)
    adapter = SolverAdapter("mute", stub_solver(""))
    traj, _ = run_solver(adapter, opb_file, grid)
    assert sample_events(traj.events, grid) == (None, None)


def test_run_solver_crash_keeps_events(stub_solver, opb_file):
    grid = make_grid(2, 2.0, 0.5)
    adapter = SolverAdapter("crashy", stub_solver("0:o 11", exit_code=3))
    traj, _ = run_solver(adapter, opb_file, grid)
    assert traj.status == "crashed"
    assert [v for _, v in traj.events] == [11]


def test_run_solver_kills_at_horizon(stub_solver, opb_file):
    grid = make_grid(2, 1.0, 0.2)
    adapter = SolverAdapter("slow", stub_solver("0:o 9|30:o 1"))
    traj, _ = run_solver(adapter, opb_file, grid)
    assert [v for _, v in traj.events] == [9]
    assert traj.status == "killed"


@pytest.mark.parametrize("script", ["echo o 5; sleep 3; echo o 4", "sleep 3 & echo o 5"])
def test_budget_kill_reaches_grandchildren(script, opb_file):
    # sh forks ``sleep``, which holds stdout open: killing only sh, or only
    # waiting for sh to exit, would leave the reader waiting for the sleep
    adapter = SolverAdapter("x", ("sh", "-c", script))
    t0 = time.monotonic()
    lines, status = run_adapter(adapter, opb_file, 0.5)
    assert time.monotonic() - t0 < 0.5 + 1.0
    assert [line for _, line in lines] == ["o 5"]
    assert status == "killed"


def test_normal_exit_is_reaped_without_a_timed_wait(opb_file, monkeypatch):
    # Popen.wait(timeout) polls, sleeping up to 50 ms between looks
    timeouts = []
    wait = subprocess.Popen.wait

    def recording_wait(self, timeout=None):
        timeouts.append(timeout)
        return wait(self, timeout)

    monkeypatch.setattr(subprocess.Popen, "wait", recording_wait)
    lines, status = run_adapter(SolverAdapter("x", ("sh", "-c", "echo o 5")), opb_file, 5.0)
    assert ([line for _, line in lines], status) == (["o 5"], "ok")
    assert timeouts == [None]


def test_child_that_closes_stdout_and_keeps_running_is_killed(opb_file):
    # the reader sees the end of stdout early and then waits for the child
    adapter = SolverAdapter("x", ("sh", "-c", "echo o 5; exec >&-; sleep 3"))
    t0 = time.monotonic()
    lines, status = run_adapter(adapter, opb_file, 0.5)
    assert 0.5 <= time.monotonic() - t0 < 0.5 + 1.0
    assert [line for _, line in lines] == ["o 5"]
    assert status == "killed"


def test_missing_executable_is_hard_error(opb_file):
    adapter = SolverAdapter("ghost", ("/nonexistent/solver", "{instance}"))
    with pytest.raises(AdapterError):
        run_solver(adapter, opb_file, make_grid(2, 1.0, 0.2))


# --- archive and portfolio runs ------------------------------------------------


def _portfolio(stub_solver):
    return PortfolioConfig(
        adapters=[
            SolverAdapter("alpha", stub_solver("0:o 12|0.05:o 7")),
            SolverAdapter("beta", stub_solver("0:o 9")),
        ],
        parallelism=2,
    )


def _instances(tmp_path, n=3):
    paths = []
    for i in range(n):
        p = tmp_path / "benchX" / f"inst{i}.opb"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text("* #variable= 1 #constraint= 1\nmin: +1 x1 ;\n+1 x1 >= 0 ;\n")
        paths.append(p)
    return paths


def test_run_portfolio_cardinality_and_resume(stub_solver, tmp_path):
    grid = make_grid(3, 2.0, 0.2)
    portfolio = _portfolio(stub_solver)
    paths = _instances(tmp_path)
    archive = run_portfolio(portfolio, paths, grid, tmp_path / "arch")
    pairs = [(iid, sid) for iid, _, _ in archive.instances() for sid in portfolio.solver_ids]
    assert len(pairs) == 6
    assert all(archive.has(iid, sid) for iid, sid in pairs)

    # resume: drop one pair, rerun, only that pair is filled back in
    victim = pairs[0]
    mtimes = {p: archive._pair_path(*p).stat().st_mtime_ns for p in pairs}
    archive._pair_path(*victim).unlink()
    archive2 = run_portfolio(portfolio, paths, grid, tmp_path / "arch")
    assert archive2.has(*victim)
    for p in pairs:
        if p != victim:
            assert archive2._pair_path(*p).stat().st_mtime_ns == mtimes[p]


def test_run_portfolio_parallel_matches_sequential(stub_solver, tmp_path):
    # the first grid point lies well past interpreter start-up: four stubs
    # starting at once on two cores print their first line after 0.2 s
    grid = make_grid(3, 2.0, 1.0)
    portfolio = _portfolio(stub_solver)
    paths = _instances(tmp_path)
    seq = run_portfolio(portfolio, paths, grid, tmp_path / "a1", parallelism=1)
    par = run_portfolio(portfolio, paths, grid, tmp_path / "a2", parallelism=4)
    assert seq.instances() == par.instances()
    for iid, _, _ in seq.instances():
        for sid in portfolio.solver_ids:
            a = seq.read_trajectory(iid, sid)
            b = par.read_trajectory(iid, sid)
            assert [v for _, v in a.events] == [v for _, v in b.events]
            assert sample_events(a.events, grid) == sample_events(b.events, grid)


def test_run_portfolio_isolates_failures(stub_solver, tmp_path):
    grid = make_grid(2, 1.0, 0.2)
    portfolio = PortfolioConfig(
        adapters=[
            SolverAdapter("ok", stub_solver("0:o 5")),
            SolverAdapter("ghost", ("/nonexistent/solver", "{instance}")),
        ]
    )
    paths = _instances(tmp_path, n=2)
    archive = run_portfolio(portfolio, paths, grid, tmp_path / "arch")
    assert len(archive.failures()) == 2
    for iid, _, _ in archive.instances():
        assert archive.has(iid, "ok")
        assert not archive.has(iid, "ghost")


def test_successful_write_clears_stale_failure(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    archive = RunArchive(tmp_path / "a", grid)
    archive.record_failure("i", "s", "cannot launch solver")
    assert len(archive.failures()) == 1
    archive.write_trajectory(_traj(((0.5, 3),)))
    assert archive.failures() == []
    assert archive.has("i", "s")


def test_failures_name_the_solver_id_not_its_file_name(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    RunArchive(tmp_path / "a", grid).record_failure("i", "s,1", "boom\nat launch")
    assert (tmp_path / "a" / "i" / "s%2C1.error").exists()
    assert RunArchive(tmp_path / "a").failures() == [("i", "s,1", "boom\nat launch")]
    # a file written before the id was stored holds the message alone
    (tmp_path / "a" / "j").mkdir()
    (tmp_path / "a" / "j" / "t_2.error").write_text("old failure\n")
    assert RunArchive(tmp_path / "a").failures()[1] == ("j", "t_2", "old failure")


def test_interrupted_archive_writes_leave_no_partial_file(tmp_path, monkeypatch):
    grid = make_grid(2, 10.0, 1.0)
    RunArchive(tmp_path / "a", grid).record_failure("i", "s", "first failure")

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="crash"):
        RunArchive(tmp_path / "b", grid)
    with pytest.raises(OSError, match="crash"):
        RunArchive(tmp_path / "a").record_failure("i", "s", "second failure")
    monkeypatch.undo()
    assert not (tmp_path / "b" / "grid.json").exists()
    assert RunArchive(tmp_path / "b", grid).grid.params() == grid.params()
    assert RunArchive(tmp_path / "a").failures() == [("i", "s", "first failure")]
    assert sorted(p.name for p in (tmp_path / "a").rglob("*")) == ["grid.json", "i", "s.error"]


class _TornAppend:
    """A file opened for appending whose first write stops halfway and raises."""

    def __init__(self, fh, number):
        self.fh, self.number = fh, number

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(f"crash at append call {self.number}")


def _count_writes(m, crash=None):
    """Patch os.replace, os.fsync and the archive's manifest append (its
    ``open`` in mode 'a') to count their calls; the call named by ``crash``,
    a (name, number) pair, raises OSError instead, and an append does so
    after writing half its line.  Returns the counts."""
    calls = {"replace": 0, "fsync": 0, "append": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            if name == "append" and args[1:2] != ("a",):
                return real(*args, **kwargs)
            calls[name] += 1
            if (name, calls[name]) != crash:
                return real(*args, **kwargs)
            if name == "append":
                return _TornAppend(real(*args, **kwargs), calls[name])
            raise OSError(f"crash at {name} call {calls[name]}")

        return call

    m.setattr(os, "replace", counted("replace", os.replace))
    m.setattr(os, "fsync", counted("fsync", os.fsync))
    m.setattr(runner, "open", counted("append", open), raising=False)
    return calls


def _archive_state(archive, solver_ids):
    """Everything a resumed run must reproduce: the files, the manifest,
    each trajectory but its timestamps, and the failures."""
    files = sorted(str(p.relative_to(archive.root)) for p in archive.root.rglob("*"))
    trajectories = {}
    for iid, _, _ in archive.instances():
        for sid in filter(lambda sid: archive.has(iid, sid), solver_ids):
            t = archive.read_trajectory(iid, sid)
            trajectories[iid, sid] = (t.solver_id, t.instance_id, [v for _, v in t.events], t.status)
    manifest = (archive.root / "instances.tsv").read_text().splitlines()
    return files, manifest, trajectories, archive.failures()


def test_run_portfolio_resumes_to_the_same_archive_after_a_crash_at_any_write(tmp_path, monkeypatch):
    # every call of os.replace, os.fsync and the manifest append is a crash
    # point, enumerated as ALICE does (Pillai et al., OSDI 2014)
    grid = make_grid(2, 1.0, 0.2)
    portfolio = PortfolioConfig(adapters=[
        SolverAdapter("s,1", ("sh", "-c", "echo o 7; echo o 4")),
        SolverAdapter("ghost", ("/nonexistent/solver", "{instance}")),
    ])
    paths = _instances(tmp_path, n=2)
    with monkeypatch.context() as m:
        counts = _count_writes(m)
        archive = run_portfolio(portfolio, paths, grid, tmp_path / "uninterrupted")
    reference = _archive_state(archive, portfolio.solver_ids)
    assert counts == {"replace": 7, "fsync": 7, "append": 2}  # grid.json, 2 x (.log, .traj), 2 x .error
    assert len(reference[2]) == 2 and len(reference[3]) == 2
    for name, count in counts.items():
        for k in range(1, count + 1):
            root = tmp_path / f"{name}-{k}"
            with monkeypatch.context() as m:
                _count_writes(m, crash=(name, k))
                with pytest.raises(OSError, match=f"crash at {name} call {k}"):
                    run_portfolio(portfolio, paths, grid, root)
            assert not list(root.rglob("*.tmp"))
            state = _archive_state(run_portfolio(portfolio, paths, grid, root), portfolio.solver_ids)
            assert state == reference, (name, k)


def test_read_trajectory_checks_whole_grid(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    archive = RunArchive(tmp_path / "a", grid)
    archive.write_trajectory(_traj(((0.5, 3),)))
    assert archive.read_trajectory("i", "s").events == ((0.5, 3),)
    path = archive._pair_path("i", "s")
    lines = path.read_text().splitlines()
    for key, value in (("t_min", 0.5), ("horizon", 20.0)):
        meta = json.loads(lines[0])
        meta[key] = value  # same count, another grid
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        with pytest.raises(ValueError):
            archive.read_trajectory("i", "s")


def test_archive_rejects_mismatched_grid(tmp_path):
    RunArchive(tmp_path / "a", make_grid(3, 2.0, 0.2))
    with pytest.raises(ValueError):
        RunArchive(tmp_path / "a", make_grid(4, 2.0, 0.2))
    # reopening without a grid picks up the stored one
    assert RunArchive(tmp_path / "a").grid.count == 3


def test_portfolio_config_file(tmp_path):
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(
        '{"parallelism": 3, "solvers": ['
        '{"id": "a", "command": "solver-a {instance} {budget}"},'
        '{"id": "b", "command": ["solver-b", "{instance}"], "parse_mode": "final-only"}]}'
    )
    portfolio = PortfolioConfig.load(cfg)
    assert portfolio.parallelism == 3
    assert portfolio.solver_ids == ["a", "b"]
    assert portfolio.by_id("b").parse_mode == "final-only"
    argv = portfolio.by_id("a").argv("inst.opb", 2.5)
    assert argv == ["solver-a", "inst.opb", "2.5"]
    with pytest.raises(KeyError):
        portfolio.by_id("zzz")


@pytest.mark.parametrize("command, fault", [
    ("solver {x}", "unknown placeholder {x}"),
    (("solver", "--log={log}"), "unknown placeholder {log}"),
    ("solver {budget:{width}}", "unknown placeholder {width}"),
    ("solver {}", "unknown placeholder {}"),
    ("solver {instance", "expected '}'"),
    ("solver budget}", "Single '}'"),
])
def test_adapter_rejects_unknown_placeholders_and_unbalanced_braces(command, fault):
    with pytest.raises(ValueError, match=r"solver 'a': .*" + re.escape(fault)):
        SolverAdapter("a", command)


@pytest.mark.parametrize("command", ["echo {budget:.0f}", "solver {instance!r}", ("solver", "{budget!s:>8}")])
def test_adapter_rejects_format_specs_and_conversions(command):
    # a spec that a string rejects would fail only at the first launch
    with pytest.raises(ValueError, match=r"solver 'a': placeholder \{\w+\} takes no format spec or conversion"):
        SolverAdapter("a", command)


def test_adapter_keeps_escaped_braces_literal():
    adapter = SolverAdapter("a", "solver {{x}} {instance} {budget}")
    assert adapter.argv("i.opb", 2) == ["solver", "{x}", "i.opb", "2.0"]


def test_portfolio_with_unknown_placeholder_fails_before_any_run(tmp_path):
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(json.dumps({"solvers": [{"id": "a", "command": "echo {x}"}]}))
    with pytest.raises(ValueError, match=r"solver 'a': unknown placeholder \{x\}"):
        PortfolioConfig.load(cfg)


def test_duplicate_solver_ids_rejected():
    with pytest.raises(ValueError):
        PortfolioConfig(adapters=[SolverAdapter("x", "a"), SolverAdapter("x", "b")])


def test_dotted_solver_ids_keep_their_own_files(tmp_path):
    grid = make_grid(2, 1.0, 0.2)
    values = {"v1.0": 5, "v1.1": 3, "s0": 9}
    portfolio = PortfolioConfig(adapters=[SolverAdapter(sid, ("sh", "-c", f"echo o {v}")) for sid, v in values.items()])
    archive = run_portfolio(portfolio, _instances(tmp_path, n=1), grid, tmp_path / "arch")
    ((iid, _, _),) = archive.instances()
    assert sorted(p.name for p in (archive.root / iid).iterdir()) == [
        "s0.log", "s0.traj", "v1.0.log", "v1.0.traj", "v1.1.log", "v1.1.traj"
    ]
    for sid, value in values.items():
        traj = archive.read_trajectory(iid, sid)
        assert (traj.solver_id, [v for _, v in traj.events]) == (sid, [value])
    archive.record_failure(iid, "v2.0", "boom")
    assert archive.failures() == [(iid, "v2.0", "boom")]
    assert not archive.has(iid, "v2.1")


def test_every_solver_id_names_its_own_files_inside_its_instance_directory(tmp_path):
    # each character outside [A-Za-z0-9._-] is written as the %XX escapes
    # of its UTF-8 bytes, '%' included, so no two ids share a name
    names = {"": "", ".": ".", "..": "..", "s,1": "s%2C1", "s;1": "s%3B1", "a,": "a%2C",
             "a%2C": "a%252C", "é": "%C3%A9", "x/y": "x%2Fy"}
    grid = make_grid(2, 1.0, 0.2)
    adapters = [SolverAdapter(sid, ("sh", "-c", f"echo o {v}")) for v, sid in enumerate(names, 1)]
    archive = run_portfolio(PortfolioConfig(adapters=adapters), _instances(tmp_path, n=1), grid, tmp_path / "arch")
    ((iid, _, _),) = archive.instances()
    files = [f"{iid}/{name}{suffix}" for name in names.values() for suffix in (".log", ".traj")]
    assert sorted(str(p.relative_to(archive.root)) for p in archive.root.rglob("*")) == sorted(
        ["grid.json", "instances.tsv", iid] + files
    )
    for v, sid in enumerate(names, 1):
        traj = archive.read_trajectory(iid, sid)
        assert (traj.solver_id, [value for _, value in traj.events]) == (sid, [v])
        archive.record_failure(iid, sid, f"failure of {sid!r}")
    assert sorted(archive.failures()) == sorted((iid, sid, f"failure of {sid!r}") for sid in names)
    # a lone surrogate, which strict UTF-8 cannot encode, and an astral
    # character, as its four UTF-8 bytes
    assert archive._pair_path(iid, "\ud800").name == "%ED%A0%80.traj"
    assert archive._pair_path(iid, "\U0001F600").name == "%F0%9F%98%80.traj"
    ids = list(names)
    for k, sid in enumerate(ids):
        archive._pair_path(iid, sid).unlink()
        assert [archive.has(iid, other) for other in ids] == [i > k for i in range(len(ids))]


@pytest.mark.parametrize("sid", ["", ".", ".."], ids=["empty", "dot", "dot-dot"])
def test_solver_id_that_named_no_file_gets_one(tmp_path, sid):
    # the suffix keeps each name a file of its own in the instance directory
    PortfolioConfig(adapters=[SolverAdapter("a", "true"), SolverAdapter(sid, "true")])
    archive = RunArchive(tmp_path / "a", make_grid(2, 10.0, 1.0))
    archive.write_trajectory(_traj(((0.5, 3),), solver=sid))
    assert [p.name for p in (archive.root / "i").iterdir()] == [f"{sid}.traj"]
    assert archive.read_trajectory("i", sid).solver_id == sid
    assert archive.has("i", sid) and not archive.has("i", "a")


def test_solver_ids_that_shared_a_file_name_get_their_own(tmp_path):
    PortfolioConfig(adapters=[SolverAdapter("s,1", "true"), SolverAdapter("s;1", "true")])
    archive = RunArchive(tmp_path / "a", make_grid(2, 10.0, 1.0))
    for sid, value in (("s,1", 3), ("s;1", 5)):
        archive.write_trajectory(_traj(((0.5, value),), solver=sid))
    assert sorted(p.name for p in (archive.root / "i").iterdir()) == ["s%2C1.traj", "s%3B1.traj"]
    assert [archive.read_trajectory("i", sid).events for sid in ("s,1", "s;1")] == [((0.5, 3),), ((0.5, 5),)]


def test_empty_portfolio_rejected(tmp_path):
    with pytest.raises(ValueError, match="portfolio has no solvers"):
        PortfolioConfig(adapters=[])
    cfg = tmp_path / "portfolio.json"
    cfg.write_text(json.dumps({"solvers": []}))
    with pytest.raises(ValueError, match="portfolio has no solvers"):
        PortfolioConfig.load(cfg)


def test_instance_id_sanitized():
    assert instance_id_for("/data/set one/foo bar.opb", "set one") == "set_one__foo_bar"


class _Unencodable(int):
    """An objective that formats as a lone surrogate, which the UTF-8
    encoder rejects: writing it fails part-way through a trajectory file."""

    def __format__(self, spec):
        return "\udc80"


def test_failed_write_leaves_no_trajectory(tmp_path):
    grid = make_grid(2, 10.0, 1.0)
    archive = RunArchive(tmp_path / "a", grid)
    with pytest.raises(UnicodeEncodeError):
        archive.write_trajectory(_traj(((0.5, _Unencodable(3)),)), [(0.5, "o 3")])
    assert not archive.has("i", "s")
    # the log was whole before the trajectory write failed; no temporary file is left
    assert [p.name for p in (tmp_path / "a" / "i").iterdir()] == ["s.log"]
    archive.write_trajectory(_traj(((0.5, 3),)), [(0.5, "o 3")])
    assert archive.read_trajectory("i", "s").events == ((0.5, 3),)


def test_read_trajectory_rejects_short_sampled_record(tmp_path):
    grid = make_grid(3, 10.0, 1.0)
    archive = RunArchive(tmp_path / "a", grid)
    archive.write_trajectory(_traj(((0.5, 3),)))
    path = archive._pair_path("i", "s")
    text = path.read_text()
    assert text.endswith("sampled 3 3 3\n")
    for record in ("sampled 3 3", "sampled 3 3 3 3", "sampled"):
        path.write_text(text.replace("sampled 3 3 3", record))
        with pytest.raises(ValueError, match="sampled"):
            archive.read_trajectory("i", "s")


def _foreign_traj_text(grid, events, sampled):
    """A ``.traj`` file as a tool other than this program writes it."""
    meta = {"solver": "s", "instance": "i", "horizon": grid.horizon, "count": grid.count,
            "t_min": grid.t_min, "status": "ok"}
    lines = [json.dumps(meta)] + [f"{t!r} {v}" for t, v in events]
    lines.append("sampled " + " ".join("NA" if v is None else str(v) for v in sampled))
    return "\n".join(lines) + "\n"


def test_trajectory_files_of_other_writers_read_as_their_events(tmp_path):
    rng = random.Random(23)
    grid = make_grid(12, 50.0, 0.5)
    archive = RunArchive(tmp_path / "a", grid)
    path = archive._pair_path("i", "s")
    path.parent.mkdir()
    for _ in range(300):
        # events on grid points and between them, some without any
        times = sorted(
            rng.choice([rng.choice(grid.points), round(rng.uniform(0, grid.horizon), 3)])
            for _ in range(rng.choice([0, 1, 2, 4, 6]))
        )
        if len(times) > 1 and rng.random() < 0.5:
            times[1] = times[0]  # two lines read in one clock tick
        events = tuple(zip(times, sorted(rng.sample(range(-20, 40), len(times)), reverse=True)))
        path.write_text(_foreign_traj_text(grid, events, [oracle_sample(events, t) for t in grid.points]))
        traj = archive.read_trajectory("i", "s")
        assert traj.events == events
        assert sample_events(traj.events, grid) == tuple(oracle_sample(events, t) for t in grid.points)
        assert _held_times(traj.events, grid) == [
            max((et for et, _ in events if et <= t), default=None) for t in grid.points
        ]


def test_sampled_record_of_right_width_is_not_read(tmp_path):
    grid = make_grid(3, 10.0, 1.0)
    archive = RunArchive(tmp_path / "a", grid)
    path = archive._pair_path("i", "s")
    path.parent.mkdir()
    path.write_text(_foreign_traj_text(grid, ((0.5, 3),), [9, None, -4]))
    traj = archive.read_trajectory("i", "s")
    assert traj == _traj(((0.5, 3),))
    assert sample_events(traj.events, grid) == (3, 3, 3)


@pytest.mark.parametrize("cut", ["in the benchmark field", "in the path field"])
def test_torn_manifest_line_is_dropped_and_registered_again(cut, tmp_path, caplog):
    # a crash in the middle of an append leaves the manifest's last line
    # without its newline; cut in the path, it still holds three fields
    grid = make_grid(2, 1.0, 0.2)
    paths = _instances(tmp_path, n=2)
    portfolio = PortfolioConfig(adapters=[SolverAdapter("echo", ("sh", "-c", "echo o 5"))])
    root = tmp_path / "arch"
    run_portfolio(portfolio, paths[:1], grid, root)
    manifest = root / "instances.tsv"
    whole = manifest.read_text()
    iid = instance_id_for(paths[1], "benchX")
    line = f"{iid}\tbenchX\t{paths[1]}"
    torn = line[: len(iid) + 3] if cut == "in the benchmark field" else line[:-4]
    manifest.write_text(whole + torn)
    with caplog.at_level("WARNING"):
        reopened = RunArchive(root)
    assert repr(torn) in caplog.text
    assert manifest.read_text() == whole
    assert iid not in [i for i, _, _ in reopened.instances()]
    archive = run_portfolio(portfolio, paths, grid, root)
    assert (iid, "benchX", str(paths[1])) in archive.instances()
    assert archive.read_trajectory(iid, "echo").events[0][1] == 5
    assert RunArchive(root).instances() == archive.instances()


@pytest.mark.parametrize("line", ["b0__j\tb0", "b0__j\tb0\tx/b0/j.opb\textra", ""])
def test_malformed_manifest_line_is_an_error(line, tmp_path):
    archive = RunArchive(tmp_path / "a", make_grid(2, 10.0, 1.0))
    archive.register_instance("b0__i", "b0", "x/b0/i.opb")
    manifest = tmp_path / "a" / "instances.tsv"
    manifest.write_text(manifest.read_text() + line + "\nb0__k\tb0\tx/b0/k.opb\n")
    with pytest.raises(ValueError, match=r"instances\.tsv, line 2: \d fields, expected 3"):
        RunArchive(tmp_path / "a")


def test_instance_id_collision_is_rejected(stub_solver, tmp_path):
    grid = make_grid(2, 1.0, 0.2)
    paths = []
    for top in ("x", "y"):
        p = tmp_path / top / "b0" / "i.opb"
        p.parent.mkdir(parents=True)
        p.write_text("* #variable= 1 #constraint= 1\nmin: +1 x1 ;\n+1 x1 >= 0 ;\n")
        paths.append(p)
    assert instance_id_for(paths[0], "b0") == instance_id_for(paths[1], "b0") == "b0__i"
    with pytest.raises(ValueError, match="b0__i"):
        run_portfolio(_portfolio(stub_solver), paths, grid, tmp_path / "arch")
    assert list((tmp_path / "arch").glob("*/*")) == []  # no job was launched


@pytest.mark.parametrize("name", ["tab\tdir", "nl\ndir", "cr\rdir"])
def test_benchmark_or_path_that_would_break_the_manifest_is_rejected(name, stub_solver, tmp_path):
    grid = make_grid(2, 1.0, 0.2)
    paths = []
    for bench in ("a", name, "z"):
        paths.append(tmp_path / bench / "i.opb")
        paths[-1].parent.mkdir()
        paths[-1].write_text("* #variable= 1 #constraint= 1\nmin: +1 x1 ;\n+1 x1 >= 0 ;\n")
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        run_portfolio(_portfolio(stub_solver), paths, grid, tmp_path / "arch")
    assert list((tmp_path / "arch").glob("*/*")) == []  # no job was launched
    registered = RunArchive(tmp_path / "arch").instances()
    assert registered == [(instance_id_for(paths[0], "a"), "a", str(paths[0]))]

    archive = RunArchive(tmp_path / "arch")
    with pytest.raises(ValueError, match=re.escape(repr(f"x/{name}.opb"))):
        archive.register_instance("b__x", "b", f"x/{name}.opb")
    assert RunArchive(tmp_path / "arch").instances() == registered


def test_registering_the_same_instance_again_is_a_no_op(tmp_path):
    archive = RunArchive(tmp_path / "a", make_grid(2, 10.0, 1.0))
    archive.register_instance("b0__i", "b0", "x/b0/i.opb")
    archive.register_instance("b0__i", "b0", "x/b0/i.opb")
    assert RunArchive(tmp_path / "a").instances() == [("b0__i", "b0", "x/b0/i.opb")]
    with pytest.raises(ValueError, match="b0__i"):
        archive.register_instance("b0__i", "b0", "y/b0/i.opb")
    with pytest.raises(ValueError, match="b0__i"):
        archive.register_instance("b0__i", "b1", "x/b0/i.opb")
    assert RunArchive(tmp_path / "a").instances() == [("b0__i", "b0", "x/b0/i.opb")]
