"""Pseudo-Boolean instance model and OPB competition-format support.

The text format, as used by the pseudo-Boolean competitions:

    * #variable= 4 #constraint= 2
    min: +1 x1 +2 x2 x3 ;
    +1 x1 +1 ~x2 >= 1 ;
    +3 x2 x4 = 3 ;

Lines whose first non-blank character is ``*`` are comments; the first
comment matching the standard header shape declares the variable and
constraint counts.  An optional objective line starts with ``min:`` and is
minimized.  Each term is an integer coefficient followed by one or more
literals (``x<i>`` or its negation ``~x<i>``), and every statement ends
with ``;``.  Relations ``>=``, ``<=`` and ``=`` are accepted on input;
``<=`` is rewritten to ``>=`` by negating both sides, so stored
constraints only ever use ``>=`` and ``=``.

Coefficients and right-hand sides are Python ints, so arbitrary-precision
("BIGINT") instances round-trip without truncation, up to the number of
decimal digits the interpreter converts to an int
(``sys.get_int_max_str_digits()``, 4,300 by default): a longer coefficient
or right-hand side is an :class:`OpbParseError` at its token.  All model
types are immutable and safe to share across threads.

The parser splits each line on whitespace and keeps no positions: an
error is raised with a statement and token number, and its line and
column are computed from the text only then.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

GEQ = ">="
EQ = "="

_HEADER_RE = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*(\d+)")


class OpbParseError(ValueError):
    """Raised for malformed OPB input, with 1-based line/column position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class MissingObjectiveError(ValueError):
    """The operation needs an objective but the instance has none."""


@dataclass(frozen=True)
class Term:
    """A signed coefficient times a product of literals.

    ``literals`` is a tuple of ``(variable index, negated)`` pairs sorted by
    strictly increasing variable index; a negated literal evaluates to
    ``1 - x``.  The coefficient is never zero (zero-coefficient terms are
    dropped during parsing).
    """

    coefficient: int
    literals: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        if not self.literals:
            raise ValueError("term must have at least one literal")
        first = self.literals[0][0]
        prev = first - 1
        for var, _ in self.literals:
            if var <= prev:
                raise ValueError("term literals must have strictly increasing variable indices")
            prev = var
        if first < 1:
            raise ValueError("variable indices must be >= 1")

    @property
    def degree(self) -> int:
        return len(self.literals)

    def value(self, assignment: Sequence[bool]) -> int:
        """Evaluate under a 0-based assignment (``assignment[i-1]`` is x_i)."""
        for var, negated in self.literals:
            bit = bool(assignment[var - 1])
            if negated:
                bit = not bit
            if not bit:
                return 0
        return self.coefficient


@dataclass(frozen=True)
class Constraint:
    terms: tuple[Term, ...]
    relation: str  # GEQ or EQ
    rhs: int

    def __post_init__(self):
        if self.relation not in (GEQ, EQ):
            raise ValueError(f"unsupported relation {self.relation!r}")

    def satisfied(self, assignment: Sequence[bool]) -> bool:
        lhs = sum(t.value(assignment) for t in self.terms)
        return lhs >= self.rhs if self.relation == GEQ else lhs == self.rhs


@dataclass(frozen=True)
class Instance:
    """A parsed pseudo-Boolean optimization instance.

    ``objective`` is ``None`` when the document has no ``min:`` line; an
    empty tuple means an explicit but empty objective.  ``num_variables``
    comes from the header when present, otherwise it is the largest index
    used.  ``source_name`` and ``benchmark_id`` are identity metadata and
    do not participate in equality.
    """

    objective: tuple[Term, ...] | None
    constraints: tuple[Constraint, ...]
    num_variables: int
    declared_constraints: int
    source_name: str = field(default="", compare=False)
    benchmark_id: str = field(default="", compare=False)

    def __post_init__(self):
        used = [v for t in self.all_terms() for v, _ in t.literals]
        if used and max(used) > self.num_variables:
            raise ValueError(
                f"variable x{max(used)} exceeds declared count {self.num_variables}"
            )

    def all_terms(self):
        """Objective terms first, then constraint terms in document order."""
        if self.objective is not None:
            yield from self.objective
        for c in self.constraints:
            yield from c.terms

    def objective_value(self, assignment: Sequence[bool]) -> int:
        if self.objective is None:
            raise MissingObjectiveError(f"instance {self.source_name!r} has no objective")
        return sum(t.value(assignment) for t in self.objective)

    def satisfied(self, assignment: Sequence[bool]) -> bool:
        return all(c.satisfied(assignment) for c in self.constraints)


def is_linear(inst: Instance) -> bool:
    """True iff no term (objective or constraints) has two or more literals."""
    return all(t.degree == 1 for t in inst.all_terms())


_RELATIONS = (">=", "<=", "=", ">", "<")
_ACCEPTED = (">=", "<=", "=")
# the one way ``int`` fails on a token that ``_is_coefficient`` accepts
_TOO_LONG = "integer has more digits than the interpreter converts"


class _Misplaced(Exception):
    """A parse error as (reason, statement number, token number);
    ``parse_opb`` turns it into an :class:`OpbParseError` with line and
    column."""


def _is_coefficient(tok: str) -> bool:
    """``[+-]?`` then decimal digits, the shape ``int`` reads exactly."""
    return (tok[1:] if tok[0] in "+-" else tok).isdecimal()


def _literal(tok: str) -> tuple[int, bool] | None:
    """``(index, negated)`` of an ``x<i>`` or ``~x<i>`` token, else None."""
    if tok[0] == "x":
        digits, negated = tok[1:], False
    elif tok[:2] == "~x":
        digits, negated = tok[2:], True
    else:
        return None
    return (int(digits), negated) if digits.isdecimal() else None


def _statements(text: str) -> tuple[list[list[str]], tuple[int, int] | None]:
    """Token lists of the ``;``-terminated statements, and the header counts
    if a standard header comment was seen."""
    header: tuple[int, int] | None = None
    pending: list[str] = []
    statements: list[list[str]] = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0][0] == "*":
            if header is None:
                m = _HEADER_RE.match(raw.lstrip())
                if m:
                    header = (int(m.group(1)), int(m.group(2)))
            continue
        ends = raw.count(";")
        if not ends:
            pending += tokens
            continue
        last = tokens[-1]
        if ends == 1 and last[-1] == ";":  # the usual line: one statement's end
            pending += tokens
            if last == ";":
                pending.pop()
                if not pending:
                    raise _Misplaced("empty statement", len(statements), 0)
            else:
                pending[-1] = last[:-1]
            statements.append(pending)
            pending = []
            continue
        for tok in tokens:
            if tok != ";" and tok.endswith(";"):
                pending.append(tok[:-1])
                tok = ";"
            if tok == ";":
                if not pending:
                    raise _Misplaced("empty statement", len(statements), 0)
                statements.append(pending)
                pending = []
            else:
                pending.append(tok)
    if pending:
        raise _Misplaced("statement missing ';' terminator", len(statements), len(pending) - 1)
    return statements, header


def _position(text: str, statement: int, token: int) -> tuple[int, int]:
    """Line and column of a statement's token, its ``;`` counting as the
    token after its last; the one scan that tracks positions."""
    s = k = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.lstrip()
        if not stripped or stripped.startswith("*"):
            continue
        for m in re.finditer(r"\S+", raw):
            tok, col = m.group(), m.start() + 1
            if tok != ";" and tok.endswith(";"):
                if (s, k) == (statement, token):
                    return lineno, col
                k += 1
                tok, col = ";", col + len(tok) - 1
            if (s, k) == (statement, token):
                return lineno, col
            s, k = (s + 1, 0) if tok == ";" else (s, k + 1)
    raise ValueError(f"no token {token} in statement {statement}")


def _literal_error(stmt: list[str], head: int, s: int) -> _Misplaced | None:
    """The first index below 1 or repeated index in the literals after the
    coefficient at token ``head``, in document order."""
    seen: set[int] = set()
    for k in range(head + 1, len(stmt)):
        lit = _literal(stmt[k])
        if lit is None:
            break
        var = lit[0]
        if var < 1:
            return _Misplaced("variable index must be >= 1", s, k)
        if var in seen:
            return _Misplaced(f"variable x{var} appears twice in one term", s, k)
        seen.add(var)
    return None


def _term(stmt: list[str], head: int, lits: list, negate: bool, s: int) -> Term | None:
    """The term whose coefficient is token ``head``; None when that is zero,
    as zero-coefficient terms are normalized away."""
    try:
        coeff = int(stmt[head])
    except ValueError:
        raise _Misplaced(_TOO_LONG, s, head) from None
    if coeff == 0:
        error = _literal_error(stmt, head, s)
        if error is not None:
            raise error
        return None
    lits.sort()
    try:
        return Term(-coeff if negate else coeff, tuple(lits))
    except ValueError:
        raise _literal_error(stmt, head, s) from None


def _terms(
    stmt: list[str], start: int, stop: int, negate: bool, s: int
) -> tuple[list[Term], int]:
    """The terms in tokens ``start:stop`` of statement ``s``, negated for a
    ``<=`` constraint, and the largest variable index they use."""
    terms: list[Term] = []
    top = 0
    head = -1  # token index of the open term's coefficient
    lits: list[tuple[int, bool]] = []
    for k in range(start, stop):
        tok = stmt[k]
        lit = _literal(tok) if head >= 0 else None
        if lit is not None:
            lits.append(lit)
            if lit[0] > top:
                top = lit[0]
            continue
        if head >= 0:
            if not lits:
                raise _Misplaced(f"expected literal, got {tok!r}", s, k)
            term = _term(stmt, head, lits, negate, s)
            if term is not None:
                terms.append(term)
        if not _is_coefficient(tok):
            raise _Misplaced(f"expected coefficient, got {tok!r}", s, k)
        head, lits = k, []
    if head < 0:
        raise _Misplaced("statement has no terms", s, 0)
    if not lits:
        raise _Misplaced(f"term with coefficient {stmt[head]} has no literals", s, head)
    term = _term(stmt, head, lits, negate, s)
    if term is not None:
        terms.append(term)
    return terms, top


def _relation_error(stmt: list[str], s: int) -> _Misplaced | None:
    """The first relation or right-hand-side error of a constraint."""
    at = [k for k, tok in enumerate(stmt) if tok in _RELATIONS]
    if not at:
        return _Misplaced("constraint has no relation", s, 0)
    if len(at) > 1:
        return _Misplaced("multiple relations in one constraint", s, at[1])
    ri, rel = at[0], stmt[at[0]]
    if rel not in _ACCEPTED:
        return _Misplaced(f"relation {rel!r} not allowed (use >=, <= or =)", s, ri)
    if ri != len(stmt) - 2:
        return _Misplaced("expected a single right-hand side after the relation", s, ri)
    if not _is_coefficient(stmt[-1]):
        return _Misplaced(f"malformed right-hand side {stmt[-1]!r}", s, len(stmt) - 1)
    return None


def _first_use(statements: list[list[str]], var: int) -> tuple[int, int]:
    """Statement and token number of the first literal of ``var``."""
    for s, stmt in enumerate(statements):
        for k, tok in enumerate(stmt):
            lit = _literal(tok)
            if lit is not None and lit[0] == var:
                return s, k
    raise ValueError(f"x{var} does not occur")


def _parse(text: str, source_name: str, benchmark_id: str) -> Instance:
    statements, header = _statements(text)
    objective: tuple[Term, ...] | None = None
    constraints: list[Constraint] = []
    top = 0
    for s, stmt in enumerate(statements):
        n = len(stmt)
        if stmt[0] == "min:":
            if objective is not None:
                raise _Misplaced("multiple objective lines", s, 0)
            terms, used = _terms(stmt, 1, n, False, s) if n > 1 else ((), 0)
            objective = tuple(terms)
        elif n >= 2 and stmt[-2] in _ACCEPTED and _is_coefficient(stmt[-1]):
            try:
                terms, used = _terms(stmt, 0, n - 2, stmt[-2] == "<=", s)
            except _Misplaced as exc:
                # a relation error comes first, wherever it is
                raise _relation_error(stmt, s) or exc
            try:
                rhs, relation = int(stmt[-1]), stmt[-2]
            except ValueError:
                raise _Misplaced(_TOO_LONG, s, n - 1) from None
            if relation == "<=":
                rhs, relation = -rhs, GEQ
            constraints.append(Constraint(tuple(terms), relation, rhs))
        else:
            # a statement of any other shape has a relation error
            raise _relation_error(stmt, s)
        if used > top:
            top = used

    if header is not None:
        num_vars, declared_cons = header
        if top > num_vars:
            raise _Misplaced(
                f"undeclared variable x{top} (header declares {num_vars})",
                *_first_use(statements, top),
            )
    else:
        num_vars, declared_cons = top, len(constraints)

    return Instance(
        objective=objective,
        constraints=tuple(constraints),
        num_variables=num_vars,
        declared_constraints=declared_cons,
        source_name=source_name,
        benchmark_id=benchmark_id,
    )


def parse_opb(text: str | bytes, source_name: str = "", benchmark_id: str = "") -> Instance:
    """Parse an OPB document into a validated :class:`Instance`."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return _parse(text, source_name, benchmark_id)
    except _Misplaced as exc:
        reason, statement, token = exc.args
        raise OpbParseError(reason, *_position(text, statement, token)) from None


def parse_opb_file(path: str | Path, benchmark_id: str | None = None) -> Instance:
    """Parse an OPB file; the benchmark defaults to the parent directory name."""
    path = Path(path)
    if benchmark_id is None:
        benchmark_id = path.parent.name or "default"
    return parse_opb(path.read_text(), source_name=str(path), benchmark_id=benchmark_id)


def _literal_str(lit: tuple[int, bool]) -> str:
    var, negated = lit
    return f"~x{var}" if negated else f"x{var}"


def _term_str(term: Term) -> str:
    return f"{term.coefficient:+d} " + " ".join(_literal_str(l) for l in term.literals)


def serialize(inst: Instance) -> str:
    """Canonical OPB text: header, objective, one constraint per line."""
    lines = [f"* #variable= {inst.num_variables} #constraint= {inst.declared_constraints}"]
    if inst.objective is not None:
        body = " ".join(_term_str(t) for t in inst.objective)
        lines.append(f"min: {body} ;" if body else "min: ;")
    for c in inst.constraints:
        body = " ".join(_term_str(t) for t in c.terms)
        lines.append(f"{body} {c.relation} {c.rhs} ;")
    return "\n".join(lines) + "\n"


def linearize(inst: Instance) -> Instance:
    """Replace every product of k >= 2 literals with a fresh variable.

    Each distinct product gets one auxiliary variable (shared across all
    occurrences, numbered n+1, n+2, ... in first-occurrence order) plus the
    usual AND encoding: ``y <= l_i`` for each of the k literals and
    ``y >= sum(l_i) - (k - 1)``, appended after the original constraints.
    Linear instances are returned unchanged, which makes the operation
    idempotent.
    """
    if is_linear(inst):
        return inst

    aux: dict[tuple[tuple[int, bool], ...], int] = {}
    next_var = inst.num_variables

    def rewrite(term: Term) -> Term:
        nonlocal next_var
        if term.degree == 1:
            return term
        var = aux.get(term.literals)
        if var is None:
            next_var += 1
            var = next_var
            aux[term.literals] = var
        return Term(term.coefficient, ((var, False),))

    objective = None
    if inst.objective is not None:
        objective = tuple(rewrite(t) for t in inst.objective)
    constraints = [
        Constraint(tuple(rewrite(t) for t in c.terms), c.relation, c.rhs)
        for c in inst.constraints
    ]
    for literals, var in aux.items():
        k = len(literals)
        for lit in literals:
            constraints.append(
                Constraint((Term(1, (lit,)), Term(-1, ((var, False),))), GEQ, 0)
            )
        lower = (Term(1, ((var, False),)),) + tuple(Term(-1, (lit,)) for lit in literals)
        constraints.append(Constraint(lower, GEQ, 1 - k))

    return Instance(
        objective=objective,
        constraints=tuple(constraints),
        num_variables=next_var,
        declared_constraints=len(constraints),
        source_name=inst.source_name,
        benchmark_id=inst.benchmark_id,
    )
