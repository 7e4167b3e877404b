"""Seeded random generators for instances, events and mini-archives."""

import random

from pbselect.eval import context_from_trajectories
from pbselect.grid import make_grid
from pbselect.opb import Constraint, Instance, Term, parse_opb
from pbselect.runner import Trajectory


def random_term(rng: random.Random, n_vars: int, max_degree: int = 1) -> Term:
    degree = rng.randint(1, min(max_degree, n_vars))
    variables = rng.sample(range(1, n_vars + 1), degree)
    literals = tuple(sorted((v, rng.random() < 0.3) for v in variables))
    coeff = rng.choice([c for c in range(-8, 9) if c != 0])
    return Term(coeff, literals)


def opb_text(objective, constraints, num_variables: int, declared_constraints: int) -> str:
    """OPB text of these :class:`Term` and :class:`Constraint` values; a
    constraint without terms gets the term ``+0 x1``, as ``serialize``
    writes it."""

    def body(terms):
        return " ".join(
            f"{t.coefficient:+d} " + " ".join(f"~x{v}" if neg else f"x{v}" for v, neg in t.literals)
            for t in terms
        )

    lines = [f"* #variable= {num_variables} #constraint= {declared_constraints}"]
    if objective is not None:
        lines.append(f"min: {body(objective)} ;")
    lines += [f"{body(c.terms) or '+0 x1'} {c.relation} {c.rhs} ;" for c in constraints]
    return "\n".join(lines) + "\n"


def random_instance(
    rng: random.Random,
    max_vars: int = 50,
    max_constraints: int = 12,
    max_degree: int = 3,
    with_objective: bool = True,
) -> Instance:
    n_vars = rng.randint(1, max_vars)
    objective = None
    if with_objective:
        objective = tuple(
            random_term(rng, n_vars, max_degree) for _ in range(rng.randint(1, 6))
        )
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        terms = tuple(
            random_term(rng, n_vars, max_degree) for _ in range(rng.randint(1, 5))
        )
        relation = rng.choice([">=", "="])
        constraints.append(Constraint(terms, relation, rng.randint(-10, 10)))
    return parse_opb(opb_text(objective, constraints, n_vars, len(constraints)))


def random_events(
    rng: random.Random, horizon: float, value_range=(-5, 20), empty_chance=0.25
):
    """Increasing times, strictly improving values; sometimes no events."""
    if rng.random() < empty_chance:
        return ()
    count = rng.randint(1, 5)
    times = sorted(round(rng.uniform(0, horizon), 3) for _ in range(count))
    value = rng.randint(*value_range)
    events = []
    for t in times:
        events.append((t, value))
        value -= rng.randint(1, 4)
    return tuple(events)


def random_mini_archive(rng: random.Random):
    """A small in-memory archive: grid, solver order, events, trajectories."""
    n_solvers = rng.randint(1, 3)
    n_instances = rng.randint(1, 5)
    count = rng.randint(2, 10)
    grid = make_grid(count, horizon=100.0, t_min=1.0)
    solver_order = [f"s{k}" for k in range(n_solvers)]
    events = {}
    trajectories = {}
    for i in range(n_instances):
        iid = f"inst{i}"
        events[iid] = {}
        trajectories[iid] = {}
        for sid in solver_order:
            ev = random_events(rng, grid.horizon)
            events[iid][sid] = ev
            trajectories[iid][sid] = Trajectory(solver_id=sid, instance_id=iid, events=ev)
    ctx = context_from_trajectories(grid, solver_order, trajectories)
    return grid, solver_order, events, trajectories, ctx


# --- synthetic end-to-end corpus -------------------------------------------------
#
# Four solvers, three timestep regimes.  Each instance encodes two informative
# features (constraint count f1, variable count f2); the intended winner of a
# (quadrant, regime) cell is (quadrant + regime) % 4, with a noise fraction of
# (instance, regime) cells rewired to a different solver.  Objective values are
# arranged so the cell winner strictly leads while every solver still improves
# over time:  winner holds (100 - regime) - 1, everyone else (100 - regime).

SOLVERS4 = ["s0", "s1", "s2", "s3"]


def synthetic_instance_text(f1: int, f2: int) -> str:
    lines = [f"* #variable= {f2} #constraint= {f1}", "min: +1 x1 ;"]
    for k in range(f1):
        lines.append(f"+1 x{k % f2 + 1} >= 0 ;")
    return "\n".join(lines) + "\n"


def synthetic_corpus(root, rng: random.Random, n_instances: int, grid, noise=0.05,
                     solvers=SOLVERS4, benchmarks=tuple(f"bench{k}" for k in range(10))):
    """Write OPB files plus a fully synthetic archive; returns the archive.
    Instance i belongs to ``benchmarks[i % len(benchmarks)]``; ``solvers``
    names the four solvers."""
    from pathlib import Path

    from pbselect.runner import RunArchive, instance_id_for

    root = Path(root)
    regimes = [0 if j < grid.count // 3 else (1 if j < 2 * grid.count // 3 else 2)
               for j in range(grid.count)]
    regime_start = {r: regimes.index(r) for r in (0, 1, 2)}
    archive = RunArchive(root / "archive", grid)
    for i in range(n_instances):
        f1 = rng.randint(5, 60)
        f2 = rng.randint(5, 60)
        quadrant = (f1 > 32) * 2 + (f2 > 32)
        bench = benchmarks[i % len(benchmarks)]
        path = root / "instances" / bench / f"i{i:04d}.opb"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(synthetic_instance_text(f1, f2))
        iid = instance_id_for(path, bench)
        archive.register_instance(iid, bench, str(path))

        winners = {}
        for r in (0, 1, 2):
            w = solvers[(quadrant + r) % 4]
            if rng.random() < noise:
                w = rng.choice([s for s in solvers if s != w])
            winners[r] = w
        for sid in solvers:
            events = []
            value = None
            for r in (0, 1, 2):
                v = (100 - r) - (1 if winners[r] == sid else 0)
                if value is None or v < value:
                    events.append((grid.points[regime_start[r]], v))
                    value = v
            archive.write_trajectory(Trajectory(solver_id=sid, instance_id=iid, events=tuple(events)))
    return archive


# tokens that each break one rule of the grammar, or stretch one
MUTANT_TOKENS = (
    "~", "x", "+", "-", "0", "+0", "-0", "x0", "~x0", "x1", "~x1", "~~x1", "x+1", "+-1",
    "x99", "<=", ">=", "=", ">", "<", "min:", ";", "*", "y1", "12345678901234567890",
    "-98765432109876543210", "x12345678901234567890", "9" * 4301,
)


def mutate_document(rng: random.Random, text: str, edits: int = 2) -> str:
    """``text`` after a few random edits: a token replaced by, or a token
    inserted from, ``MUTANT_TOKENS``; a token deleted; two adjacent tokens
    swapped or glued (as a ';' to its token); a line moved or split."""
    lines = text.splitlines()
    for _ in range(edits):
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        op = rng.randrange(7)
        k = rng.randrange(len(tokens)) if tokens else 0
        if op == 0 and tokens:
            tokens[k] = rng.choice(MUTANT_TOKENS)
        elif op == 1:
            tokens.insert(k, rng.choice(MUTANT_TOKENS))
        elif op == 2 and tokens:
            del tokens[k]
        elif op == 3 and k + 1 < len(tokens):
            tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
        elif op == 4 and k + 1 < len(tokens):
            tokens[k : k + 2] = [tokens[k] + tokens[k + 1]]
        elif op == 5:
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(i))
            continue
        elif op == 6 and tokens:
            lines[i : i + 1] = [" ".join(tokens[:k]), " ".join(tokens[k:])]
            continue
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def vary_layout(rng: random.Random, text: str) -> str:
    """``text`` with the same tokens laid out differently: lines ending in
    ``\\n``, ``\\r\\n`` or ``\\r``, blanks between tokens drawn from
    ``' '``, ``'  '`` and ``'\\t'``, some lines indented or with trailing
    blanks, some ';' glued to the token before, and comment lines, some
    holding ';', inserted between lines."""
    end = rng.choice(("\n", "\r\n", "\r"))
    lines = []
    for line in text.splitlines():
        if rng.random() < 0.1:
            lines.append(rng.choice(("*", "* note ;", "  * a ; b ;", "*;x1 >= 1 ;")))
        tokens = line.split()
        if tokens and tokens[0].startswith("*"):
            lines.append(line)
            continue
        out = ""
        for k, tok in enumerate(tokens):
            glue = tok == ";" and k > 0 and rng.random() < 0.3
            out += tok if glue or not out else rng.choice((" ", "  ", "\t")) + tok
        lines.append(rng.choice(("", "", " ", "\t")) + out + rng.choice(("", "", " \t")))
    return end.join(lines) + end
