"""Execution harness: run solver adapters, record incumbent trajectories.

Adapters are external executables that follow the competition output
convention: a line ``o <integer>`` on standard output announces a new
incumbent objective value; everything else is ignored.  The harness
timestamps each line against process spawn, terminates the child's whole
process group at the budget (hard kill after a 1 s grace period), keeps
strictly improving events only, and samples them onto a
:class:`~pbselect.grid.TimestepGrid` as a step function (best value
achieved at or before each grid point).  Labeling and evaluation both read
:func:`held_ranks`: what each solver holds at each grid point, as a rank
among the instance's distinct event values, and since when.

A run archive is a directory with one subdirectory per instance holding a
``<solver>.traj`` file (metadata line, event lines, sampled line) and the
raw timestamped stdout capture in ``<solver>.log``, ``<solver>`` being the
whole id with each character outside ``[A-Za-z0-9._-]`` written as the
``%XX`` escapes of its UTF-8 bytes, so distinct ids name distinct files;
parsing the raw log reproduces the recorded events exactly.  The sampled
line is written from the events for other tools to read; reading a file
checks only its width, and every sample comes from the events.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shlex
import signal
import string
import subprocess
import threading
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import TimestepGrid, make_grid

logger = logging.getLogger(__name__)

EVENT_STREAM = "event-stream"
FINAL_ONLY = "final-only"

_INT_RE = re.compile(r"[+-]?\d+\Z")
_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")
_ESCAPED_RE = re.compile(r"[^A-Za-z0-9._-]")  # each character a solver's file name escapes
_KILL_GRACE = 1.0  # seconds between SIGTERM and SIGKILL at the budget


class AdapterError(RuntimeError):
    """Adapter could not be launched (missing executable, bad command)."""


def _fields(template: str):
    """(name, format spec, conversion) of each replacement field of a format
    string, nested ones included."""
    for _, name, spec, conversion in string.Formatter().parse(template):
        if name is not None:
            yield name, spec, conversion
            yield from _fields(spec)


@dataclass(frozen=True)
class SolverAdapter:
    """An external solver launched via a command template.

    The template is a single shell-like string or a pre-split argument
    list.  Its only placeholders are ``{instance}`` (the instance path) and
    ``{budget}`` (seconds), each without a format spec or conversion;
    ``{{`` and ``}}`` are literal braces.  Any other field, a spec or
    conversion, or an unbalanced brace is rejected when the adapter is built.
    """

    solver_id: str
    command: str | tuple[str, ...]
    parse_mode: str = EVENT_STREAM

    def __post_init__(self):
        if self.parse_mode not in (EVENT_STREAM, FINAL_ONLY):
            raise ValueError(f"unknown parse mode {self.parse_mode!r}")
        try:
            fields = [field for part in self._parts() for field in _fields(part)]
        except ValueError as exc:  # an unbalanced quote or brace
            raise ValueError(f"solver {self.solver_id!r}: {exc} in {self.command!r}") from None
        for name, _, _ in fields:
            if name not in ("instance", "budget"):
                raise ValueError(f"solver {self.solver_id!r}: unknown placeholder {{{name}}} in {self.command!r}")
        for name, spec, conversion in fields:
            if spec or conversion:
                raise ValueError(
                    f"solver {self.solver_id!r}: placeholder {{{name}}} takes no format spec "
                    f"or conversion in {self.command!r}"
                )

    def _parts(self) -> list[str]:
        return shlex.split(self.command) if isinstance(self.command, str) else list(self.command)

    def argv(self, instance: str, budget: float) -> list[str]:
        subst = {"instance": str(instance), "budget": repr(float(budget))}
        return [p.format_map(subst) for p in self._parts()]


@dataclass
class PortfolioConfig:
    adapters: list[SolverAdapter]
    parallelism: int = 1

    def __post_init__(self):
        ids = [a.solver_id for a in self.adapters]
        if not ids:
            raise ValueError("the portfolio has no solvers")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate solver ids in portfolio")

    @property
    def solver_ids(self) -> list[str]:
        return [a.solver_id for a in self.adapters]

    def by_id(self, solver_id: str) -> SolverAdapter:
        for a in self.adapters:
            if a.solver_id == solver_id:
                return a
        raise KeyError(f"solver {solver_id!r} not in portfolio")

    @classmethod
    def load(cls, path: str | Path) -> "PortfolioConfig":
        data = json.loads(Path(path).read_text())
        adapters = [
            SolverAdapter(
                solver_id=entry["id"],
                command=tuple(entry["command"]) if isinstance(entry["command"], list) else entry["command"],
                parse_mode=entry.get("parse_mode", EVENT_STREAM),
            )
            for entry in data["solvers"]
        ]
        return cls(adapters=adapters, parallelism=int(data.get("parallelism", 1)))


@dataclass(frozen=True)
class Trajectory:
    """One solver's incumbent history on one instance.

    ``events`` are (seconds, objective) pairs, nondecreasing in time and
    strictly decreasing in objective; grid samples come from them through
    :func:`sample_events`.  ``status`` is :func:`run_adapter`'s.
    """

    solver_id: str
    instance_id: str
    events: tuple[tuple[float, int], ...]
    status: str = "ok"


def parse_events(
    lines: list[tuple[float, str]], parse_mode: str, horizon: float
) -> tuple[tuple[float, int], ...]:
    """Extract incumbent events from timestamped output lines.

    Lines after the horizon are dropped; malformed ``o`` lines are skipped
    with a warning; in final-only mode just the last incumbent line counts.
    Non-improving values are discarded so the result strictly improves.
    """
    raw: list[tuple[float, int]] = []
    for t, line in lines:
        if t > horizon:
            continue
        parts = line.split()
        if not parts or parts[0] != "o":
            continue
        if len(parts) != 2 or not _INT_RE.match(parts[1]):
            logger.warning("skipping unparseable event line: %r", line)
            continue
        raw.append((t, int(parts[1])))
    if parse_mode == FINAL_ONLY:
        raw = raw[-1:]
    events: list[tuple[float, int]] = []
    for t, v in raw:
        if not events or v < events[-1][1]:
            events.append((t, v))
    return tuple(events)


def last_events(events: tuple[tuple[float, int], ...], grid: TimestepGrid) -> list[int]:
    """Index of the last event at or before each grid point, -1 before the first."""
    index: list[int] = []
    for i, (t, _) in enumerate(events):
        # the points before the first one at or after t still hold event i - 1
        index += [i - 1] * (bisect_left(grid.points, t, len(index)) - len(index))
    return index + [len(events) - 1] * (grid.count - len(index))


def sample_events(
    events: tuple[tuple[float, int], ...], grid: TimestepGrid
) -> tuple[int | None, ...]:
    """Step-function sample: best value among events at time <= t_j."""
    return tuple(events[i][1] if i >= 0 else None for i in last_events(events, grid))


def held_ranks(trajs: list[Trajectory], grid: TimestepGrid) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The incumbent each solver of one instance holds at each grid point:
    (timestep x solver) arrays of its rank among the distinct values of all
    the events, held at a grid point or not, and of the time it was reached,
    -1 and NaN before the first event; then the distinct values in
    increasing order, so ``distinct[rank]`` is the value.
    """
    distinct = sorted({v for t in trajs for _, v in t.events})
    rank = {v: r for r, v in enumerate(distinct)}
    ranks = np.empty((grid.count, len(trajs)), dtype=np.intp)
    times = np.empty((grid.count, len(trajs)))
    for s, t in enumerate(trajs):
        held = np.array(last_events(t.events, grid))  # -1 picks the appended "nothing yet"
        ranks[:, s] = np.array([rank[v] for _, v in t.events] + [-1], dtype=np.intp)[held]
        times[:, s] = np.array([at for at, _ in t.events] + [np.nan])[held]
    return ranks, times, distinct


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass  # every process of the group has been reaped already


def run_adapter(
    adapter: SolverAdapter, instance_path: str | Path, budget: float
) -> tuple[list[tuple[float, str]], str]:
    """Launch the adapter and capture timestamped stdout lines.

    The child runs in a new session, so its process group holds everything
    it starts.  The group gets ``budget`` seconds from spawn; whatever of it
    still runs or holds standard output then gets SIGTERM and, once standard
    output is closed or one second has passed, SIGKILL.  A reader thread
    reads standard output to its end, then reaps the child; the caller waits
    for that thread alone.  Returns the captured lines and a status:
    "killed" when the budget kill fired, otherwise "ok" for exit code 0 and
    "crashed" for any other.
    """
    argv = adapter.argv(str(instance_path), budget)
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            errors="replace",
            start_new_session=True,
        )
    except (FileNotFoundError, PermissionError, OSError) as exc:
        raise AdapterError(f"cannot launch solver {adapter.solver_id!r}: {exc}") from exc

    start = time.monotonic()
    lines: list[tuple[float, str]] = []

    def _pump():
        assert proc.stdout is not None
        for raw in proc.stdout:
            lines.append((round(time.monotonic() - start, 6), raw.rstrip("\r\n")))
        proc.wait()  # blocks in waitpid; Popen.wait(timeout) would poll with sleeps

    reader = threading.Thread(target=_pump, daemon=True)
    reader.start()
    # stdout stays open while any process of the group holds it, so a
    # grandchild can keep the reader going after the child has exited
    reader.join(timeout=max(0.0, start + budget - time.monotonic()))
    killed = reader.is_alive()
    if killed:
        _signal_group(proc.pid, signal.SIGTERM)
        reader.join(timeout=_KILL_GRACE)
        _signal_group(proc.pid, signal.SIGKILL)
    reader.join()
    proc.stdout.close()
    return lines, "killed" if killed else "ok" if proc.returncode == 0 else "crashed"


def run_solver(
    adapter: SolverAdapter, instance_path: str | Path, grid: TimestepGrid, instance_id: str = ""
) -> tuple[Trajectory, list[tuple[float, str]]]:
    """Run one adapter for the grid horizon; returns (trajectory, raw lines)."""
    lines, status = run_adapter(adapter, instance_path, grid.horizon)
    events = parse_events(lines, adapter.parse_mode, grid.horizon)
    traj = Trajectory(
        solver_id=adapter.solver_id,
        instance_id=instance_id or Path(instance_path).stem,
        events=events,
        status=status,
    )
    return traj, lines


# ---------------------------------------------------------------------------
# archive serialization


def trajectory_to_text(traj: Trajectory, grid: TimestepGrid) -> str:
    meta = {
        "solver": traj.solver_id,
        "instance": traj.instance_id,
        "horizon": grid.horizon,
        "count": grid.count,
        "t_min": grid.t_min,
        "status": traj.status,
    }
    lines = [json.dumps(meta)]
    lines.extend(f"{t!r} {v}" for t, v in traj.events)
    sampled = sample_events(traj.events, grid)
    lines.append("sampled " + " ".join("NA" if v is None else str(v) for v in sampled))
    return "\n".join(lines) + "\n"


def trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    lines = text.splitlines()
    meta = json.loads(lines[0])
    if not lines[-1].startswith("sampled"):
        raise ValueError("trajectory file missing sampled record")
    events = []
    for line in lines[1:-1]:
        t_str, v_str = line.split()
        events.append((float(t_str), int(v_str)))
    width = len(lines[-1].split()) - 1
    if width != meta["count"]:
        raise ValueError(f"sampled record holds {width} values, expected {meta['count']}")
    traj = Trajectory(
        solver_id=meta["solver"],
        instance_id=meta["instance"],
        events=tuple(events),
        status=meta.get("status", "ok"),
    )
    return traj, meta


def raw_log_to_text(lines: list[tuple[float, str]]) -> str:
    return "".join(f"[{t!r}] {line}\n" for t, line in lines)


def instance_id_for(path: str | Path, benchmark_id: str) -> str:
    stem = Path(path).stem
    return _UNSAFE_RE.sub("_", f"{benchmark_id}__{stem}")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``: a crash leaves either the old file or the whole new one.

    Callers hold the archive lock or run in the archive's constructor, so
    the process id keeps the temporary name apart from every other writer.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class RunArchive:
    """On-disk store of trajectories, resumable and safe for threaded writers.
    Opening one drops a manifest's torn last line and rejects a malformed one."""

    def __init__(self, root: str | Path, grid: TimestepGrid | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        grid_file = self.root / "grid.json"
        if grid_file.exists():
            stored = json.loads(grid_file.read_text())
            on_disk = make_grid(stored["count"], stored["horizon"], stored["t_min"])
            if grid is not None and grid.params() != on_disk.params():
                raise ValueError("archive already uses a different timestep grid")
            self.grid = on_disk
        else:
            if grid is None:
                raise ValueError(f"no grid.json in {self.root} and no grid given")
            _write_atomic(grid_file, json.dumps(grid.params()) + "\n")
            self.grid = grid
        self._lock = threading.Lock()
        self._manifest: dict[str, tuple[str, str]] = {}
        manifest = self.root / "instances.tsv"
        if manifest.exists():
            *lines, torn = manifest.read_text().split("\n")
            for number, line in enumerate(lines, 1):
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"{manifest}, line {number}: {len(fields)} fields, expected 3")
                self._manifest[fields[0]] = (fields[1], fields[2])
            if torn:
                # an append cut short by a crash: its instance registers again on resume
                logger.warning("dropping the unterminated last line of %s: %r", manifest, torn)
                _write_atomic(manifest, "".join(line + "\n" for line in lines))

    def _pair_path(self, instance_id: str, solver_id: str, suffix: str = ".traj") -> Path:
        # percent-encoding is injective, and the suffix, which follows the
        # whole name, keeps it from being '.' or '..'
        name = _ESCAPED_RE.sub(lambda m: "".join(f"%{b:02X}" for b in m[0].encode("utf-8", "surrogatepass")), solver_id)
        return self.root / instance_id / (name + suffix)

    def register_instance(self, instance_id: str, benchmark_id: str, path: str) -> None:
        """Add an instance to the manifest; registering it again is a no-op.

        Raises ValueError when the id is already registered to another
        (benchmark, path), as both would overwrite one trajectory, or when a
        field holds a tab, newline or carriage return, which ends its line.
        """
        for value in (instance_id, benchmark_id, path):
            if any(c in value for c in "\t\n\r"):
                raise ValueError(f"cannot register {value!r}: it holds a tab, newline or carriage return")
        with self._lock:
            known = self._manifest.get(instance_id)
            if known == (benchmark_id, path):
                return
            if known is not None:
                raise ValueError(
                    f"instance id {instance_id} of {path} ({benchmark_id}) is already "
                    f"registered to {known[1]} ({known[0]})"
                )
            self._manifest[instance_id] = (benchmark_id, path)
            with open(self.root / "instances.tsv", "a") as fh:
                fh.write(f"{instance_id}\t{benchmark_id}\t{path}\n")

    def instances(self) -> list[tuple[str, str, str]]:
        """(instance_id, benchmark_id, path) sorted by (benchmark, instance)."""
        rows = [(bench, iid, path) for iid, (bench, path) in self._manifest.items()]
        return [(iid, bench, path) for bench, iid, path in sorted(rows)]

    def has(self, instance_id: str, solver_id: str) -> bool:
        return self._pair_path(instance_id, solver_id).exists()

    def write_trajectory(self, traj: Trajectory, raw_lines: list[tuple[float, str]] | None = None) -> None:
        iid, sid = traj.instance_id, traj.solver_id
        with self._lock:
            (self.root / iid).mkdir(parents=True, exist_ok=True)
            if raw_lines is not None:
                _write_atomic(self._pair_path(iid, sid, ".log"), raw_log_to_text(raw_lines))
            _write_atomic(self._pair_path(iid, sid), trajectory_to_text(traj, self.grid))
            self._pair_path(iid, sid, ".error").unlink(missing_ok=True)

    def read_trajectory(self, instance_id: str, solver_id: str) -> Trajectory:
        text = self._pair_path(instance_id, solver_id).read_text()
        traj, meta = trajectory_from_text(text)
        if {key: meta.get(key) for key in ("count", "horizon", "t_min")} != self.grid.params():
            raise ValueError(
                f"trajectory {instance_id}/{solver_id} was recorded on a different grid"
            )
        return traj

    def record_failure(self, instance_id: str, solver_id: str, message: str) -> None:
        path = self._pair_path(instance_id, solver_id, ".error")
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, json.dumps({"solver": solver_id}) + "\n" + message + "\n")

    def failures(self) -> list[tuple[str, str, str]]:
        out = []
        for err in sorted(self.root.glob("*/*.error")):
            # a metadata line holds the solver id, which the file name holds
            # encoded; a file of an earlier version holds the message alone
            text = err.read_text()
            meta, message = text.split("\n", 1) if text.startswith('{"solver"') else ("{}", text)
            out.append((err.parent.name, json.loads(meta).get("solver", err.stem), message.strip()))
        return out


def run_portfolio(
    portfolio: PortfolioConfig,
    instance_paths: list[str | Path],
    grid: TimestepGrid,
    archive_root: str | Path,
    parallelism: int | None = None,
) -> RunArchive:
    """Run every (solver, instance) pair that the archive does not hold yet.

    An instance's benchmark is the name of the directory holding it, or
    ``default`` when its path names no directory; the archive manifest
    records it.  Failures are isolated per pair and recorded as ``.error``
    files; those pairs are retried on the next invocation.
    """
    archive = RunArchive(archive_root, grid)
    jobs: list[tuple[SolverAdapter, str, str]] = []
    for path in sorted(str(p) for p in instance_paths):
        bench = Path(path).parent.name or "default"
        iid = instance_id_for(path, bench)
        archive.register_instance(iid, bench, path)
        for adapter in portfolio.adapters:
            if not archive.has(iid, adapter.solver_id):
                jobs.append((adapter, path, iid))

    def _work(job):
        adapter, path, iid = job
        try:
            traj, raw = run_solver(adapter, path, grid, instance_id=iid)
            archive.write_trajectory(traj, raw)
        except AdapterError as exc:
            archive.record_failure(iid, adapter.solver_id, str(exc))

    workers = parallelism if parallelism is not None else portfolio.parallelism
    if workers <= 1:
        for job in jobs:
            _work(job)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_work, jobs))
    return archive
