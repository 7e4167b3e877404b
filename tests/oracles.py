"""Independent brute-force reference implementations used by the tests.

These deliberately take different computational routes from the package:
exact rational arithmetic for the metric stack, sort-based winner
selection, min-over-scan sampling, a reference reader of the raw run
log, and term-by-term evaluation of an instance under an assignment.
They are the ground truth the production code is compared against.
"""

from fractions import Fraction


def oracle_normalize(o, o_min, o_max):
    """Exact rational version of the per-pair normalization."""
    if o_max is None:
        raise ValueError("bounds undefined")
    if o is None:
        return Fraction(2)
    if o_min == o_max:
        return Fraction(0)
    return Fraction(o - o_min, o_max - o_min)


def oracle_metric(values, bounds):
    """Exact cumulative metric; ``bounds`` is a (o_min, o_max) per pair."""
    return sum(
        (oracle_normalize(o, lo, hi) for o, (lo, hi) in zip(values, bounds)),
        Fraction(0),
    )


def oracle_m_hat(m_ms, m_sbs, m_vbs):
    return Fraction(m_ms - m_vbs, m_sbs - m_vbs)


def oracle_sample(events, t):
    """Best objective among events at time <= t, by direct scan."""
    feasible = [v for et, v in events if et <= t]
    return min(feasible) if feasible else None


def oracle_bounds(events_by_solver):
    """(o_min, o_max) over every event of every solver; (None, None) if none."""
    everything = [v for events in events_by_solver for _, v in events]
    if not everything:
        return None, None
    return min(everything), max(everything)


def oracle_label(candidates):
    """Winner by sorting: (value, achievement time, declaration index).

    ``candidates`` is a list of (solver_id, value, time) with value=None for
    solvers without a solution; returns "NO_SOLUTION" when nothing is
    feasible.
    """
    feasible = [
        (value, at, pos, sid)
        for pos, (sid, value, at) in enumerate(candidates)
        if value is not None
    ]
    if not feasible:
        return "NO_SOLUTION"
    return sorted(feasible)[0][3]


def raw_log_from_text(text):
    """Reference reader of a run's ``.log`` file: the (time, stdout line)
    pairs written as ``[<time>] <line>``; other lines are ignored."""
    out = []
    for raw in text.splitlines():
        if not raw.startswith("["):
            continue
        stamp, _, rest = raw.partition("] ")
        out.append((float(stamp[1:]), rest))
    return out


def oracle_pairs(events_by_instance_solver, solver_order, points):
    """Included (instance, timestep) pairs: some solver feasible there."""
    pairs = []
    for iid in sorted(events_by_instance_solver):
        for j, t in enumerate(points):
            if any(
                oracle_sample(events_by_instance_solver[iid][sid], t) is not None
                for sid in solver_order
            ):
                pairs.append((iid, j))
    return pairs


def assignments(n):
    """All 0/1 assignments over n variables as tuples of bools."""
    for mask in range(1 << n):
        yield tuple(bool(mask >> i & 1) for i in range(n))


def term_value(term, assignment):
    """A term under a 0-based assignment (``assignment[i-1]`` is x_i): its
    coefficient when every literal is true, else 0."""
    for var, negated in term.literals:
        if bool(assignment[var - 1]) == negated:
            return 0
    return term.coefficient


def constraint_satisfied(constraint, assignment):
    """Whether one constraint holds under ``assignment``."""
    lhs = sum(term_value(t, assignment) for t in constraint.terms)
    return lhs >= constraint.rhs if constraint.relation == ">=" else lhs == constraint.rhs


def satisfied(inst, assignment):
    """Whether every constraint of ``inst`` holds under ``assignment``."""
    return all(constraint_satisfied(c, assignment) for c in inst.constraints)


def objective_value(inst, assignment):
    """The objective of ``inst`` under ``assignment``."""
    return sum(term_value(t, assignment) for t in inst.objective)
