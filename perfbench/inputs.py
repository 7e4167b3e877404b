"""Seeded input generators for the benchmark.

Everything here is written without calling ``pbselect``: each generator
writes plain files (OPB text, trajectory archives, adapter scripts) and
returns what it intended, so the checks can compare the program's outputs
against values it did not compute.

* ``write_opb`` writes one instance and counts, while generating it, every
  quantity the feature schemas are built from.
* ``write_archive`` writes tiny or mid-size instances plus a synthetic run
  archive in which each (instance, regime) cell has a known winner.
* ``write_adapters`` writes instant solver executables whose single
  ``o`` line names the solver.
"""

from __future__ import annotations

import json
import math
import random
import stat
from dataclasses import dataclass
from pathlib import Path

SOLVERS = ["s0", "s1", "s2", "s3"]
NO_SOLUTION = "NO_SOLUTION"
# adapter for solver k prints "o <OBJ_BASE + k>", so the value names the solver
OBJ_BASE = 1000

LINEAR_KEEP = (0, 1, 3, 4, 5, 6, 11, 12, 13)


@dataclass(frozen=True)
class OpbCounts:
    """What an instance holds, counted by the generator that wrote it."""

    n_vars: int
    c_sizes: tuple[int, ...]  # number of terms of each constraint
    obj_terms: int
    obj_pos: int
    constr_terms: int
    constr_pos: int  # after "<=" constraints are rewritten to ">="
    degrees: tuple[int, int, int, int]  # terms of degree 1, 2, 3, >=4
    products: tuple[int, ...]  # arity of each distinct product of >= 2 literals

    @property
    def n_terms(self) -> int:
        return self.obj_terms + self.constr_terms

    def nonlinear(self) -> tuple[float, ...]:
        m = len(self.c_sizes)
        sizes = [0, 0, 0, 0]
        for s in self.c_sizes:
            sizes[min(s, 4) - 1] += 1
        total = self.n_terms
        return (
            float(m),
            float(self.n_vars),
            1.0 if self.products else 0.0,
            *(_frac(k, m) for k in sizes),
            *(_frac(k, total) for k in self.degrees),
            _frac(self.obj_terms, total),
            _frac(self.constr_pos, self.constr_terms),
            _frac(self.obj_pos, self.obj_terms),
        )

    def linear(self) -> tuple[float, ...]:
        """Each distinct k-literal product adds 1 variable, k two-term
        constraints and one (k+1)-term constraint: 3k+1 terms, k+1 positive."""
        c_sizes = list(self.c_sizes)
        for k in self.products:
            c_sizes += [2] * k + [k + 1]
        extra_terms = sum(3 * k + 1 for k in self.products)
        extra_pos = sum(k + 1 for k in self.products)
        lin = OpbCounts(
            n_vars=self.n_vars + len(self.products),
            c_sizes=tuple(c_sizes),
            obj_terms=self.obj_terms,
            obj_pos=self.obj_pos,
            constr_terms=self.constr_terms + extra_terms,
            constr_pos=self.constr_pos + extra_pos,
            degrees=(self.n_terms + extra_terms, 0, 0, 0),
            products=(),
        )
        full = lin.nonlinear()
        return tuple(full[i] for i in LINEAR_KEEP)

    def features(self, schema: str) -> tuple[float, ...]:
        return self.linear() if schema == "linear" else self.nonlinear()


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def write_opb(
    path: Path,
    shape: random.Random,
    surface: random.Random,
    n_vars: int,
    n_cons: int,
    terms_per_cons: tuple[int, int],
    n_products: int = 0,
    product_share: float = 0.0,
    obj_terms: int = 8,
) -> OpbCounts:
    """Write a random instance and count what its features are made of.

    ``shape`` draws everything the features depend on: sizes, relations,
    coefficients, degrees and which of ``n_products`` distinct 2- and
    3-literal products each nonlinear term uses.  ``surface`` draws the
    rest: variable indices, negations and right-hand sides.  Two surfaces
    over one shape give different files with equal features.
    """
    arities = [shape.choice((2, 3)) for _ in range(n_products)]
    pool: list[tuple[tuple[int, bool], ...]] = []
    seen = set()
    for k in arities:
        lits = None
        while lits is None or lits in seen:
            variables = surface.sample(range(1, n_vars + 1), k)
            lits = tuple(sorted((v, surface.random() < 0.3) for v in variables))
        seen.add(lits)
        pool.append(lits)
    used: dict[int, int] = {}
    degrees = [0, 0, 0, 0]

    def term(coeffs: list[int]) -> str:
        coeff = shape.choice((-5, -3, -2, -1, 1, 1, 2, 3, 4, 7))
        if pool and shape.random() < product_share:
            p = shape.randrange(len(pool))
            used[p] = arities[p]
            lits = pool[p]
        else:
            lits = ((surface.randint(1, n_vars), surface.random() < 0.3),)
        degrees[min(len(lits), 4) - 1] += 1
        coeffs.append(coeff)
        return f"{coeff:+d} " + " ".join(("~x" if neg else "x") + str(v) for v, neg in lits)

    obj_coeffs: list[int] = []
    obj = " ".join(term(obj_coeffs) for _ in range(obj_terms))
    lines = [f"* #variable= {n_vars} #constraint= {n_cons}", f"min: {obj} ;"]
    c_sizes = []
    constr_terms = constr_pos = 0
    for _ in range(n_cons):
        size = shape.randint(*terms_per_cons)
        relation = shape.choice((">=", ">=", "=", "<="))
        coeffs: list[int] = []
        body = " ".join(term(coeffs) for _ in range(size))
        sign = -1 if relation == "<=" else 1  # "<=" is stored negated as ">="
        constr_pos += sum(1 for c in coeffs if sign * c > 0)
        constr_terms += size
        c_sizes.append(size)
        lines.append(f"{body} {relation} {surface.randint(-3, 3)} ;")
    path.write_text("\n".join(lines) + "\n")
    return OpbCounts(
        n_vars=n_vars,
        c_sizes=tuple(c_sizes),
        obj_terms=obj_terms,
        obj_pos=sum(1 for c in obj_coeffs if c > 0),
        constr_terms=constr_terms,
        constr_pos=constr_pos,
        degrees=tuple(degrees),
        products=tuple(used.values()),
    )


# --- timestep grid and synthetic archive ---------------------------------------


def grid_points(count: int, horizon: float, t_min: float) -> list[float]:
    """The geometric grid t_j = t_min * (horizon/t_min)^(j/(count-1))."""
    ratio = horizon / t_min
    points = [t_min * ratio ** (j / (count - 1)) for j in range(count)]
    points[0], points[-1] = t_min, horizon
    return points


def regime_of(j: int, count: int) -> int:
    """Three equal thirds of the grid; each has its own winner."""
    return 0 if j < count // 3 else (1 if j < 2 * count // 3 else 2)


@dataclass
class ArchiveTruth:
    """What the generator meant: features, winners and every recorded event."""

    grid: tuple[int, float, float]  # count, horizon, t_min
    instances: list[str]  # instance ids, sorted
    benchmark: dict[str, str]
    counts: dict[str, OpbCounts]
    winners: dict[str, tuple[str, str, str]]  # winner of regime 0, 1, 2
    events: dict[str, dict[str, tuple[tuple[float, int], ...]]]

    def label(self, iid: str, j: int) -> str:
        return self.winners[iid][regime_of(j, self.grid[0])]


# Intended winner of (quadrant, regime) is SOLVERS[(quadrant + regime) % 4];
# a NOISE share of (instance, regime) cells is rewired to another solver,
# which no selector can learn, so m_hat sits well above 0.
NOISE = 0.1
SHAPE_SEED = 2309
STEP = 12


def write_archive(
    root: Path,
    seed: int,
    n_instances: int,
    grid: tuple[int, float, float],
    make_instance,
) -> ArchiveTruth:
    """Instances under ``root/instances/<bench>/`` plus ``root/archive``.

    ``make_instance(path, shape, surface, quadrant)`` writes one OPB file
    whose constraint and variable counts put it in ``quadrant`` (0..3).
    Features, winners and names come from the fixed ``SHAPE_SEED``; the
    run's seed draws the instance text, the objective offsets and the
    winners' leads.  So every seed poses the same learning problem through
    different files, and ``m_hat`` moves only with the leads.
    """
    shape, surface = random.Random(SHAPE_SEED), random.Random(seed)
    count, horizon, t_min = grid
    points = grid_points(count, horizon, t_min)
    starts = [next(j for j in range(count) if regime_of(j, count) == r) for r in range(3)]
    arch = root / "archive"
    arch.mkdir(parents=True)
    (arch / "grid.json").write_text(
        json.dumps({"count": count, "horizon": horizon, "t_min": t_min}) + "\n"
    )
    truth = ArchiveTruth(grid, [], {}, {}, {}, {})
    manifest = []
    for i in range(n_instances):
        bench = f"bench{i % 10}"
        iid = f"{bench}__i{i:04d}"
        path = root / "instances" / bench / f"i{i:04d}.opb"
        path.parent.mkdir(parents=True, exist_ok=True)
        quadrant = i % 4
        truth.counts[iid] = make_instance(path, shape, surface, quadrant)
        winners = []
        for r in range(3):
            w = (quadrant + r) % 4
            if shape.random() < NOISE:
                w = (w + shape.randint(1, 3)) % 4
            winners.append(SOLVERS[w])
        truth.winners[iid] = tuple(winners)
        truth.benchmark[iid] = bench
        # Every solver improves by STEP per regime and the regime's winner
        # leads by 10 or 11, so it holds the strict minimum there; the
        # seeded leads move m_hat slightly from seed to seed.
        base = surface.randint(0, 10_000)
        leads = [surface.randint(10, 11) for _ in range(3)]
        truth.events[iid] = {}
        (arch / iid).mkdir()
        for sid in SOLVERS:
            events = []
            for r in range(3):
                value = base + 100 - STEP * r - (leads[r] if winners[r] == sid else 0)
                if not events or value < events[-1][1]:
                    events.append((points[starts[r]], value))
            truth.events[iid][sid] = tuple(events)
            _write_traj(arch / iid / f"{sid}.traj", sid, iid, grid, points, events)
        manifest.append(f"{iid}\t{bench}\t{path}\n")
    (arch / "instances.tsv").write_text("".join(manifest))
    truth.instances = sorted(truth.winners)
    return truth


def _write_traj(path, sid, iid, grid, points, events) -> None:
    count, horizon, t_min = grid
    meta = {"solver": sid, "instance": iid, "horizon": horizon, "count": count,
            "t_min": t_min, "status": "ok"}
    sampled = []
    for t in points:
        best = [v for et, v in events if et <= t]
        sampled.append(str(min(best)) if best else "NA")
    lines = [json.dumps(meta)] + [f"{t!r} {v}" for t, v in events]
    lines.append("sampled " + " ".join(sampled))
    path.write_text("\n".join(lines) + "\n")


# --- instance families ------------------------------------------------------------


def tiny_instance(path: Path, shape, surface, quadrant: int) -> OpbCounts:
    """At most 60 single-term constraints over at most 60 variables; the
    quadrant is (constraints > 32, variables > 32)."""
    n_cons = shape.randint(33, 60) if quadrant >= 2 else shape.randint(5, 32)
    n_vars = shape.randint(33, 60) if quadrant % 2 else shape.randint(5, 32)
    return write_opb(path, shape, surface, n_vars, n_cons, (1, 1), obj_terms=1)


def mid_instance(path: Path, shape, surface, quadrant: int) -> OpbCounts:
    """200 to 1,100 terms of degree 1 to 3 sharing up to 120 distinct products.

    After linearization the low and high constraint counts fall in about
    [270, 450] and [670, 920], the variable counts in [160, 310] and
    [560, 790], so the quadrant is learnable from the linear schema.
    """
    n_cons = shape.randint(400, 530) if quadrant >= 2 else shape.randint(100, 170)
    n_vars = shape.randint(500, 700) if quadrant % 2 else shape.randint(100, 200)
    return write_opb(
        path, shape, surface, n_vars, n_cons, (1, 3),
        n_products=shape.randint(80, 120), product_share=0.35, obj_terms=20,
    )


# --- serving inputs -------------------------------------------------------------


def write_adapters(root: Path) -> dict:
    """Instant executables, one per solver, and the portfolio file naming them."""
    root.mkdir(parents=True, exist_ok=True)
    solvers = []
    for k, sid in enumerate(SOLVERS):
        script = root / f"{sid}.sh"
        script.write_text(f"#!/bin/sh\necho 'c {sid}'\necho 'o {OBJ_BASE + k}'\n")
        script.chmod(script.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        solvers.append({"id": sid, "command": [str(script), "{instance}", "{budget}"]})
    portfolio = {"solvers": solvers, "parallelism": 1}
    (root / "portfolio.json").write_text(json.dumps(portfolio) + "\n")
    return portfolio


def serve_sizes(n: int, lo: int, hi: int) -> list[int]:
    """Term counts spread log-evenly from lo to hi; fixed, so every seed
    asks for the same amount of work."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def serve_instance(path: Path, shape, surface, n_terms: int, nonlinear: bool) -> OpbCounts:
    """About ``n_terms`` terms, four per constraint on average."""
    n_cons = max(1, (n_terms - 10) // 4)
    n_vars = max(10, n_terms // 6)
    if nonlinear:
        return write_opb(
            path, shape, surface, n_vars, n_cons, (2, 6),
            n_products=max(2, n_terms // 8), product_share=0.3, obj_terms=10,
        )
    return write_opb(path, shape, surface, n_vars, n_cons, (2, 6), obj_terms=10)


def between(points: list[float], j: int) -> float:
    """A budget strictly inside [t_j, t_{j+1}), far from either end."""
    return math.sqrt(points[j] * points[j + 1])
