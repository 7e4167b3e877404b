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

An :class:`Instance` is columnar, in compressed-sparse-row form: one
array entry per term (its coefficient), one per literal (variable index
and negation flag, sorted by index within each term), offsets from terms
to literals and from statements to terms, and a relation and right-hand
side per constraint.  The objective, when there is one, is statement 0.
Every feature, :func:`linearize` and :func:`serialize` is array work on
this layout.  :class:`Term` and :class:`Constraint` are views, built on
first use of ``Instance.objective`` or ``Instance.constraints``, and the
input of :meth:`Instance.from_terms`.

Coefficients are an int64 array, or an object array of Python ints when
one of them does not fit int64; right-hand sides are Python ints.  So
arbitrary-precision ("BIGINT") instances round-trip without truncation, up
to the number of decimal digits the interpreter converts to an int
(``sys.get_int_max_str_digits()``, 4,300 by default): a longer
coefficient, right-hand side, variable index or header count is an
:class:`OpbParseError` at its token.  Variable indices are int64, so an
index above 2**63 - 1 is an error too.  All model types are frozen; an
instance's arrays are not copied for its readers, who must not write to
them.

The reader splits each line on whitespace, then classifies, converts and
checks every token of every term at once, with C-level ``map`` calls and
numpy.  It keeps no positions.  Only when a check fails does a scalar
walker re-read the statements to find the first error in document order;
its line and column are computed from the text only then.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul, sub
from pathlib import Path
from typing import NoReturn

import numpy as np

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
    dropped during parsing).  :meth:`Instance.from_terms` checks all this.
    """

    coefficient: int
    literals: tuple[tuple[int, bool], ...]

    @property
    def degree(self) -> int:
        return len(self.literals)


@dataclass(frozen=True)
class Constraint:
    terms: tuple[Term, ...]
    relation: str  # GEQ or EQ
    rhs: int


def _offsets(sizes) -> np.ndarray:
    """CSR offsets of consecutive groups of the given sizes."""
    return np.concatenate(([0], np.cumsum(np.asarray(sizes, dtype=np.int64))))


def _int_array(values: list[int]) -> np.ndarray:
    """int64 when every value fits, else an object array of Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _within_terms(pairs: np.ndarray, term_starts: np.ndarray) -> bool:
    """Whether any of ``pairs`` (one per adjacent pair of literals) holds
    for two literals of one term."""
    pairs[term_starts[1:-1] - 1] = False
    return bool(pairs.any())


@dataclass(frozen=True, eq=False)
class Instance:
    """A parsed pseudo-Boolean optimization instance, in columnar form.

    Term ``t`` is ``coefficients[t]`` times the literals
    ``term_starts[t]:term_starts[t + 1]`` of ``variables`` and ``negated``,
    which increase strictly in variable index.  Statement ``s`` holds the
    terms ``statement_starts[s]:statement_starts[s + 1]``.  Statement 0 is
    the objective when ``has_objective`` (an objective may be empty); the
    other statements are the constraints, in document order, with
    ``relations`` and ``rhs``.  ``num_variables`` comes from the header
    when present, otherwise it is the largest index used.  Equality
    compares everything but ``source_name`` and ``benchmark_id``, which are
    identity metadata.
    """

    coefficients: np.ndarray
    term_starts: np.ndarray
    variables: np.ndarray
    negated: np.ndarray
    statement_starts: np.ndarray
    relations: tuple[str, ...]
    rhs: tuple[int, ...]
    has_objective: bool
    num_variables: int
    declared_constraints: int
    source_name: str = ""
    benchmark_id: str = ""

    @classmethod
    def from_terms(
        cls,
        objective: tuple[Term, ...] | None,
        constraints: tuple[Constraint, ...],
        num_variables: int,
        declared_constraints: int,
        source_name: str = "",
        benchmark_id: str = "",
    ) -> Instance:
        """The instance holding these terms and constraints; a ValueError
        when a term or a relation breaks the rules of :class:`Term` and
        :class:`Constraint`, or a variable exceeds ``num_variables``."""
        statements = ([] if objective is None else [objective]) + [c.terms for c in constraints]
        terms = [t for terms in statements for t in terms]
        literals = [lit for t in terms for lit in t.literals]
        inst = cls(
            coefficients=_int_array([t.coefficient for t in terms]),
            term_starts=_offsets([len(t.literals) for t in terms]),
            variables=np.array([var for var, _ in literals], dtype=np.int64),
            negated=np.array([neg for _, neg in literals], dtype=bool),
            statement_starts=_offsets([len(terms) for terms in statements]),
            relations=tuple(c.relation for c in constraints),
            rhs=tuple(c.rhs for c in constraints),
            has_objective=objective is not None,
            num_variables=num_variables,
            declared_constraints=declared_constraints,
            source_name=source_name,
            benchmark_id=benchmark_id,
        )
        variables, starts = inst.variables, inst.term_starts
        if (
            not (inst.coefficients != 0).all()
            or (starts[1:] <= starts[:-1]).any()
            or variables.min(initial=1) < 1
            or _within_terms(variables[1:] <= variables[:-1], starts)
        ):
            raise ValueError("a term needs a nonzero coefficient and increasing indices >= 1")
        if not set(inst.relations).issubset((GEQ, EQ)):
            raise ValueError(f"unsupported relation in {inst.relations}")
        if variables.max(initial=0) > num_variables:
            raise ValueError(f"variable x{variables.max()} exceeds declared count {num_variables}")
        return inst

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        scalars = ("relations", "rhs", "has_objective", "num_variables", "declared_constraints")
        arrays = ("coefficients", "term_starts", "variables", "negated", "statement_starts")
        return all(getattr(self, a) == getattr(other, a) for a in scalars) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        )

    @cached_property
    def _statement_views(self) -> list[tuple[Term, ...]]:
        literals = list(zip(self.variables.tolist(), self.negated.tolist()))
        starts, bounds = self.term_starts.tolist(), self.statement_starts.tolist()
        terms = [
            Term(c, tuple(literals[a:b]))
            for c, a, b in zip(self.coefficients.tolist(), starts, starts[1:])
        ]
        return [tuple(terms[a:b]) for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def objective(self) -> tuple[Term, ...] | None:
        """The objective's terms; None when the document has no ``min:``
        line, an empty tuple for an explicit but empty objective."""
        return self._statement_views[0] if self.has_objective else None

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        views = self._statement_views[self.has_objective :]
        return tuple(map(Constraint, views, self.relations, self.rhs))


def is_linear(inst: Instance) -> bool:
    """True iff no term (objective or constraints) has two or more literals."""
    return len(inst.variables) == len(inst.coefficients)


_RELATIONS = (">=", "<=", "=", ">", "<")
# the accepted relations, as stored: '<=' constraints are negated
_STORED = {">=": GEQ, "<=": GEQ, "=": EQ}
# the one way ``int`` fails on a token that ``_is_coefficient`` accepts
_TOO_LONG = "integer has more digits than the interpreter converts"
_MAX_INDEX = 2**63 - 1

# a token is its prefix then decimal digits; the prefix gives its kind
_NEGATIVE, _LITERAL, _NEGATED = 2, 3, 4
_PREFIX_KIND = {"": 1, "+": 1, "-": _NEGATIVE, "x": _LITERAL, "~x": _NEGATED}


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


def _header_counts(text: str, raw: str, m: re.Match) -> tuple[int, int]:
    """The counts of header line ``raw``, matched by ``m`` after its indent."""
    counts = []
    for group in (1, 2):
        try:
            counts.append(int(m.group(group)))
        except ValueError:
            # ``raw`` is the first line equal to itself: an earlier copy
            # would have been the header
            column = len(raw) - len(raw.lstrip()) + m.start(group) + 1
            raise OpbParseError(_TOO_LONG, text.splitlines().index(raw) + 1, column) from None
    return counts[0], counts[1]


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
                    header = _header_counts(text, raw, m)
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


def _read(
    statements: list[list[str]], header: tuple[int, int] | None, source_name: str, benchmark_id: str
) -> Instance | None:
    """The instance, with every token classified, converted and checked at
    once; None when any check fails, which leaves the error to
    :func:`_locate`."""
    heads = list(map(itemgetter(0), statements))
    has_objective = "min:" in heads
    objective: list[str] = []
    constraints = statements
    if has_objective:
        if heads.count("min:") > 1:
            return None
        s = heads.index("min:")
        objective = statements[s][1:]
        constraints = statements[:s] + statements[s + 1 :]
    # a constraint is at least one term token, a relation and a right-hand side
    sizes = list(map(len, constraints))
    if min(sizes, default=3) < 3:
        return None
    relations = list(map(itemgetter(-2), constraints))
    if not set(relations).issubset(_STORED):
        return None

    # the term tokens of the objective, then of each constraint, then the
    # right-hand sides; the term tokens of statement s are starts[s]:starts[s + 1]
    tokens = list(
        chain(
            objective,
            chain.from_iterable(map(itemgetter(slice(0, -2)), constraints)),
            map(itemgetter(-1), constraints),
        )
    )
    n = len(tokens) - len(constraints)
    first = (0, len(objective)) if has_objective else (0,)
    starts = np.fromiter(accumulate(chain(first, map(sub, sizes, repeat(2)))), np.int64)
    digits = list(map(str.lstrip, tokens, repeat("+-~x")))
    prefixes = map(str.removesuffix, tokens, digits)
    # one byte per token: its kind, 0 for a token of no kind
    kinds = bytes(map(mul, map(_PREFIX_KIND.get, prefixes, repeat(0)), map(str.isdecimal, digits)))
    if 0 in kinds or max(kinds[n:], default=1) >= _LITERAL:
        return None
    kind = np.frombuffer(kinds, np.int8)
    is_coefficient = kind < _LITERAL
    at = np.flatnonzero(is_coefficient[:n])
    # literals before each term, and after the last
    term_starts = np.append(at - np.arange(len(at)), n - len(at))
    # an empty objective is no region to check
    edges = starts[1:] if has_objective and not objective else starts
    # with every token a coefficient or a literal, and every right-hand side
    # a coefficient, the grammar's (coefficient literal+)+ is every region
    # opened by a coefficient and every term holding a literal
    if not (is_coefficient[edges[:-1]].all() and (term_starts[1:] > term_starts[:-1]).all()):
        return None
    try:
        try:
            values = np.fromiter(map(int, digits), np.int64, len(digits))
        except OverflowError:  # a value outside int64
            values = np.array(list(map(int, digits)), dtype=object)
    except ValueError:  # an integer longer than ``int`` converts
        return None
    is_literal = ~is_coefficient[:n]
    try:
        variables = values[:n][is_literal].astype(np.int64)
    except OverflowError:
        return None
    negated = kind[:n][is_literal] == _NEGATED
    top = int(variables.max(initial=0))
    if variables.min(initial=1) < 1 or (header is not None and top > header[0]):
        return None
    statement_starts = np.searchsorted(at, starts)
    if len(variables) > len(at) and _within_terms(variables[1:] <= variables[:-1], term_starts):
        term_of = np.repeat(np.arange(len(at)), np.diff(term_starts))
        order = np.lexsort((variables, term_of))
        variables, negated = variables[order], negated[order]
        if _within_terms(variables[1:] == variables[:-1], term_starts):
            return None

    # signs: a '-' prefix, and both sides of a '<=' constraint negated
    negative = kind[at] == _NEGATIVE
    rhs_negative = kind[n:] == _NEGATIVE
    if "<=" in relations:
        leq = np.fromiter(map("<=".__eq__, relations), bool, len(relations))
        rhs_negative ^= leq
        first_term = statement_starts[int(has_objective)]
        negative[first_term:] ^= np.repeat(leq, np.diff(statement_starts[int(has_objective) :]))
    coefficients = values[at]
    np.negative(coefficients, out=coefficients, where=negative)
    rhs = values[n:].copy()
    np.negative(rhs, out=rhs, where=rhs_negative)
    if coefficients.dtype == object:
        coefficients = _int_array(coefficients.tolist())
    if not coefficients.all():  # zero-coefficient terms go, after their literals were checked
        kept = coefficients != 0
        degree = np.diff(term_starts)
        keep_literal = np.repeat(kept, degree)
        variables, negated = variables[keep_literal], negated[keep_literal]
        coefficients = coefficients[kept]
        statement_starts = _offsets(kept)[statement_starts]
        term_starts = _offsets(degree[kept])

    num_variables, declared = header if header is not None else (top, len(constraints))
    return Instance(
        coefficients=coefficients,
        term_starts=term_starts,
        variables=variables,
        negated=negated,
        statement_starts=statement_starts,
        relations=tuple(map(_STORED.__getitem__, relations)),
        rhs=tuple(rhs.tolist()),
        has_objective=has_objective,
        num_variables=num_variables,
        declared_constraints=declared,
        source_name=source_name,
        benchmark_id=benchmark_id,
    )


def _check_term(stmt: list[str], head: int, s: int) -> None:
    """Raise the first error of the term whose coefficient is token
    ``head``: a coefficient too long to convert, then, in document order,
    an index below 1 or a repeated index among its literals."""
    try:
        int(stmt[head])
    except ValueError:
        raise _Misplaced(_TOO_LONG, s, head) from None
    seen: set[int] = set()
    for k in range(head + 1, len(stmt)):
        lit = _literal(stmt[k])
        if lit is None:
            break
        var = lit[0]
        if var < 1:
            raise _Misplaced("variable index must be >= 1", s, k)
        if var in seen:
            raise _Misplaced(f"variable x{var} appears twice in one term", s, k)
        seen.add(var)


def _check_terms(stmt: list[str], start: int, stop: int, s: int) -> int:
    """Raise the first error in the terms in tokens ``start:stop`` of
    statement ``s``; else return the largest variable index they use."""
    top = 0
    head = -1  # token index of the open term's coefficient
    has_literals = False
    for k in range(start, stop):
        tok = stmt[k]
        try:
            lit = _literal(tok) if head >= 0 else None
        except ValueError:  # an index longer than ``int`` converts
            raise _Misplaced(_TOO_LONG, s, k) from None
        if lit is not None:
            has_literals = True
            if lit[0] > top:
                top = lit[0]
            continue
        if head >= 0:
            if not has_literals:
                raise _Misplaced(f"expected literal, got {tok!r}", s, k)
            _check_term(stmt, head, s)
        if not _is_coefficient(tok):
            raise _Misplaced(f"expected coefficient, got {tok!r}", s, k)
        head, has_literals = k, False
    if head < 0:
        raise _Misplaced("statement has no terms", s, 0)
    if not has_literals:
        raise _Misplaced(f"term with coefficient {stmt[head]} has no literals", s, head)
    _check_term(stmt, head, s)
    return top


def _relation_error(stmt: list[str], s: int) -> _Misplaced | None:
    """The first relation or right-hand-side error of a constraint."""
    at = [k for k, tok in enumerate(stmt) if tok in _RELATIONS]
    if not at:
        return _Misplaced("constraint has no relation", s, 0)
    if len(at) > 1:
        return _Misplaced("multiple relations in one constraint", s, at[1])
    ri, rel = at[0], stmt[at[0]]
    if rel not in _STORED:
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


def _locate(statements: list[list[str]], header: tuple[int, int] | None) -> NoReturn:
    """Raise the first error, in document order, of statements that
    :func:`_read` rejected: the one scalar walk of the grammar."""
    seen_objective = False
    top = 0
    for s, stmt in enumerate(statements):
        n = len(stmt)
        if stmt[0] == "min:":
            if seen_objective:
                raise _Misplaced("multiple objective lines", s, 0)
            seen_objective = True
            used = _check_terms(stmt, 1, n, s) if n > 1 else 0
        elif n >= 2 and stmt[-2] in _STORED and _is_coefficient(stmt[-1]):
            try:
                used = _check_terms(stmt, 0, n - 2, s)
            except _Misplaced as exc:
                # a relation error comes first, wherever it is
                raise _relation_error(stmt, s) or exc
            try:
                int(stmt[-1])
            except ValueError:
                raise _Misplaced(_TOO_LONG, s, n - 1) from None
        else:
            # a statement of any other shape has a relation error
            raise _relation_error(stmt, s)
        top = max(top, used)
    if header is not None and top > header[0]:
        raise _Misplaced(
            f"undeclared variable x{top} (header declares {header[0]})",
            *_first_use(statements, top),
        )
    if top > _MAX_INDEX:
        raise _Misplaced(f"variable index x{top} exceeds 2**63 - 1", *_first_use(statements, top))
    raise AssertionError("the array checks rejected a well-formed document")


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte decode; the '?' stands for it
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        column = len(lines[-1][:-1].encode("utf-8")) + 1
        reason = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise OpbParseError(reason, len(lines), column) from None


def parse_opb(text: str | bytes, source_name: str = "", benchmark_id: str = "") -> Instance:
    """Parse an OPB document into a validated :class:`Instance`."""
    if isinstance(text, bytes):
        text = _decode(text)
    try:
        statements, header = _statements(text)
        inst = _read(statements, header, source_name, benchmark_id)
        if inst is None:
            _locate(statements, header)
    except _Misplaced as exc:
        reason, statement, token = exc.args
        raise OpbParseError(reason, *_position(text, statement, token)) from None
    return inst


def parse_opb_file(path: str | Path, benchmark_id: str | None = None) -> Instance:
    """Parse an OPB file; the benchmark defaults to the parent directory name."""
    path = Path(path)
    if benchmark_id is None:
        benchmark_id = path.parent.name or "default"
    return parse_opb(path.read_bytes(), source_name=str(path), benchmark_id=benchmark_id)


def serialize(inst: Instance) -> str:
    """Canonical OPB text: header, objective, one constraint per line.

    A constraint left without terms, as all its coefficients were zero, is
    written with the term ``+0 x1``, since a statement needs a term."""
    literals = [
        f"~x{var}" if neg else f"x{var}"
        for var, neg in zip(inst.variables.tolist(), inst.negated.tolist())
    ]
    starts = inst.term_starts.tolist()
    terms = [
        f"{c:+d} " + " ".join(literals[a:b])
        for c, a, b in zip(inst.coefficients.tolist(), starts, starts[1:])
    ]
    bounds = inst.statement_starts.tolist()
    bodies = [" ".join(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    lines = [f"* #variable= {inst.num_variables} #constraint= {inst.declared_constraints}"]
    if inst.has_objective:
        body = bodies.pop(0)
        lines.append(f"min: {body} ;" if body else "min: ;")
    lines += [
        f"{b or '+0 x1'} {rel} {rhs} ;" for b, rel, rhs in zip(bodies, inst.relations, inst.rhs)
    ]
    return "\n".join(lines) + "\n"


def products(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The distinct products of two or more literals, numbered in order of
    first occurrence (objective first, then constraints in document order):
    each term's product number, -1 for a term of degree 1, and each
    product's first term."""
    degree = np.diff(inst.term_starts)
    codes = inst.variables * 2 + inst.negated
    number = np.full(len(degree), -1, dtype=np.int64)
    multi = np.flatnonzero(degree >= 2)
    multi = multi[np.argsort(degree[multi], kind="stable")]
    bounds = np.flatnonzero(np.diff(degree[multi])) + 1
    firsts = [np.zeros(0, dtype=np.int64)]
    for terms in np.split(multi, bounds) if len(multi) else ():
        k = int(degree[terms[0]])
        rows = codes[inst.term_starts[terms, None] + np.arange(k)]
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        number[terms] = sum(map(len, firsts)) + inverse.reshape(-1)
        firsts.append(terms[first])
    first_term = np.concatenate(firsts)
    order = np.argsort(first_term)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    number[multi] = rank[number[multi]]
    return number, first_term[order]


def linearize(inst: Instance) -> Instance:
    """Replace every product of k >= 2 literals with a fresh variable.

    Each distinct product gets one auxiliary variable (shared across all
    occurrences, numbered n+1, n+2, ... in first-occurrence order) plus the
    usual AND encoding: ``y <= l_i`` for each of the k literals and
    ``y >= sum(l_i) - (k - 1)``, appended after the original constraints.
    Linear instances are returned unchanged, which makes the operation
    idempotent.  An auxiliary index above 2**63 - 1 is a ValueError.
    """
    if is_linear(inst):
        return inst
    number, first_term = products(inst)
    if inst.num_variables + len(first_term) > _MAX_INDEX:
        raise ValueError(
            f"linearizing needs variable indices above 2**63 - 1 ({inst.num_variables} declared)"
        )
    aux = inst.num_variables + 1 + np.arange(len(first_term))
    # every term keeps its first literal, or becomes its product's variable
    head = inst.term_starts[:-1]
    multi = number >= 0
    variables = np.where(multi, aux[number], inst.variables[head])
    negated = inst.negated[head] & ~multi

    # per product of k literals l_i and variable y, k + 1 constraints of
    # 3k + 1 terms: +1 l_i -1 y >= 0 for each i, then +1 y -1 l_1 ... -1 l_k >= 1 - k
    k = np.diff(inst.term_starts)[first_term]
    p = np.repeat(np.arange(len(k)), 3 * k + 1)
    q = np.arange(len(p)) - _offsets(3 * k + 1)[p]  # position in the product's block
    pairs = q < 2 * k[p]
    is_aux = np.where(pairs, q % 2 == 1, q == 2 * k[p])
    # the index of l_i; at y's positions it is in range and unused
    lit = inst.term_starts[first_term][p] + np.where(pairs, q // 2, q - 2 * k[p] - 1)
    last = np.cumsum(k + 1) - 1
    sizes = np.full(last[-1] + 1, 2, dtype=np.int64)
    sizes[last] = k + 1
    rhs = np.zeros(len(sizes), dtype=np.int64)
    rhs[last] = 1 - k
    coefficients = np.concatenate((inst.coefficients, np.where(pairs ^ is_aux, 1, -1)))
    terms = len(inst.coefficients)
    return Instance(
        coefficients=coefficients,
        term_starts=np.arange(len(coefficients) + 1, dtype=np.int64),
        variables=np.concatenate((variables, np.where(is_aux, aux[p], inst.variables[lit]))),
        negated=np.concatenate((negated, ~is_aux & inst.negated[lit])),
        statement_starts=np.concatenate((inst.statement_starts, terms + np.cumsum(sizes))),
        relations=inst.relations + (GEQ,) * len(sizes),
        rhs=inst.rhs + tuple(rhs.tolist()),
        has_objective=inst.has_objective,
        num_variables=inst.num_variables + len(k),
        declared_constraints=len(inst.relations) + len(sizes),
        source_name=inst.source_name,
        benchmark_id=inst.benchmark_id,
    )
