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

The grammar is ASCII: blanks are the whitespace of ``bytes.split`` (space,
``\t``, ``\n``, ``\v``, ``\f``, ``\r``), lines end at ``\n``, ``\r`` or
``\r\n``, and digits are ``0``-``9``.  Comments may hold any UTF-8; other
bytes, such as a Unicode digit or no-break space, are part of a token and
make it malformed.  Bytes that are not UTF-8 are an error at their line
and 1-based byte column; other errors are at a character column.

An :class:`Instance` is columnar, in compressed-sparse-row form: one
array entry per term (its coefficient), one per literal (variable index
and negation flag, sorted by index within each term), offsets from terms
to literals and from statements to terms, and a relation and right-hand
side per constraint.  The objective, when there is one, is statement 0.
Every feature, :func:`linearize` and :func:`serialize` is array work on
this layout.  :class:`Term` and :class:`Constraint` are views, built on
first use of ``Instance.objective`` or ``Instance.constraints``.  An
instance comes from :func:`parse_opb` or :func:`linearize`.

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

The reader makes one array pass over the document's bytes: tokens are the
runs between blanks and ``;`` bytes, each token's kind comes from its first
byte, a table of the kinds that may follow each other checks the grammar,
and the digits are converted at once.  Each token keeps its byte offset.
When a check fails, array checks on the same kinds and digits give the
first error in reading order; only its token and line are decoded.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

GEQ = ">="
EQ = "="

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
    for two literals of one term; the others are set to False."""
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
    compares everything but ``source_name``, which is identity metadata.
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


# the one way ``int`` fails on a token of digits
_TOO_LONG = "integer has more digits than the interpreter converts"
_MAX_INDEX = 2**63 - 1

# token kinds, from a token's first byte and the byte after it; a coefficient
# after a relation is a right-hand side
_UNSIGNED, _SIGNED, _LITERAL, _NEGATED, _RHS, _RELATION, _EQUALS, _HEAD, _BAD = range(9)
_KIND = np.full((256, 256), _BAD, np.uint8)
for _first, _second, _kind in (
    (b"0123456789", None, _UNSIGNED),
    (b"+-", None, _SIGNED),
    (b"x", None, _LITERAL),
    (b"~", b"x", _NEGATED),
    (b"<>", b"=", _RELATION),
    (b"=", None, _EQUALS),
    (b"m", b"i", _HEAD),
):
    _KIND[list(_first), slice(None) if _second is None else _second[0]] = _kind
_KIND = _KIND.ravel()
# the bytes before a token's digits, by kind: a relation and 'min:' are all prefix
_PREFIX = np.array([0, 1, 1, 2, 0, 2, 1, 4, 0])
# _FOLLOWS[(a * 9 + b) * 3 + end]: whether a token of kind b may follow one of
# kind a that ends nothing (end 0), a constraint (1) or the objective (2)
_FOLLOWS = np.zeros((9, 9, 3), bool)
_COEFFICIENT, _LITERALS = [_UNSIGNED, _SIGNED], [_LITERAL, _NEGATED]
for _a, _b, _end in (
    ([_HEAD], _COEFFICIENT, 0),
    (_COEFFICIENT, _LITERALS, 0),
    (_LITERALS, _LITERALS + _COEFFICIENT + [_RELATION, _EQUALS], 0),
    ([_RELATION, _EQUALS], [_RHS], 0),
    ([_RHS], [_HEAD] + _COEFFICIENT, 1),
    ([_HEAD] + _LITERALS, [_HEAD] + _COEFFICIENT, 2),
):
    _FOLLOWS[np.ix_(_a, _b, [_end])] = True
_FOLLOWS = _FOLLOWS.ravel()
# a relation as stored, by whether it is '='
_STORED_AS = np.array([GEQ, EQ], dtype=object)
_LONG = 18  # digits of a number that always fits int64

_HEADER_RE = re.compile(
    rb"\*[ \t\v\f]*#variable=[ \t\v\f]*([0-9]+)[ \t\v\f]+#constraint=[ \t\v\f]*([0-9]+)"
)
_LINE_END_RE = re.compile(rb"[\n\r]")


class _Tokens(NamedTuple):
    """A document's tokens and ';'s, comments left out, as byte offsets
    into ``text``: the document between two added line ends."""

    text: bytes
    codes: np.ndarray  # ``text`` as uint8
    solid: np.ndarray  # whether each byte is part of a token
    starts: np.ndarray  # the first byte of each token
    ends: np.ndarray  # one past each token's last byte
    semis: np.ndarray  # the offset of each ';'
    digit: np.ndarray  # each byte's digit, 0 for any other byte
    is_digit: np.ndarray  # whether each byte is a digit
    header: tuple[int, int] | None
    header_error: int | None  # the offset of a header count too long to convert


def _tokenize(data: bytes) -> _Tokens:
    """Split a document into tokens, with array work on its bytes.

    A token is a run of bytes that are neither blank nor ';'.  A line whose
    first non-blank byte is '*' is a comment; the first one of the header's
    shape gives the counts.
    """
    text = b"\n" + data + b"\n"
    codes = np.frombuffer(text, np.uint8)
    is_semi = codes == ord(";")
    solid = ~(is_semi | (codes == ord(" ")) | (codes - np.uint8(9) < 5))  # 9-13 are \t\n\v\f\r
    header = header_error = None
    star = text.find(b"*")
    while star >= 0:
        before = star - 1
        while text[before] in b" \t\v\f":
            before -= 1
        if text[before] in b"\n\r":  # the first non-blank byte of its line
            end = _LINE_END_RE.search(text, star).start()
            solid[star:end] = is_semi[star:end] = False
            m = _HEADER_RE.match(text, star) if header is None and header_error is None else None
            try:
                header = (int(m[1]), int(m[2])) if m else header
            except ValueError:  # a count longer than ``int`` converts
                header_error = m.start(1 if len(m[1]) > sys.get_int_max_str_digits() else 2)
        star = text.find(b"*", star + 1)
    edges = np.flatnonzero(solid[1:] != solid[:-1])
    edges += 1
    semis = np.flatnonzero(is_semi)
    digit = codes - np.uint8(48)
    is_digit = digit < 10
    digit *= is_digit
    return _Tokens(text, codes, solid, edges[::2], edges[1::2], semis, digit, is_digit, header, header_error)


def _kinds(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Each token's first byte, its kind and its width, the bytes after its
    kind's prefix."""
    lead = codes.take(starts)
    pair = lead.astype(np.intp)
    pair <<= 8
    pair |= codes.take(starts + 1)
    kind = _KIND.take(pair)
    width = ends - starts
    width -= _PREFIX.take(kind)
    return lead, kind, width


def _numbers(text: bytes, digit: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The integer that each token's last ``width`` bytes spell: int64 when
    none has more than _LONG digits, else Python ints; a ValueError when one
    has more digits than ``int`` converts."""
    values, place = np.zeros(len(ends), np.int64), np.empty(len(ends), np.int64)
    # last digit first: once they run out, the byte before them, which is no digit, reads as 0
    pos, before = ends - 1, ends - width
    before -= 1
    for j in range(min(width.max(initial=0), _LONG)):
        np.multiply(digit.take(np.maximum(pos, before, out=pos)), 10**j, out=place, dtype=np.int64)
        values += place
        pos -= 1
    long = np.flatnonzero(width > _LONG)
    if len(long):
        values = values.astype(object)
        spans = zip((ends[long] - width[long]).tolist(), ends[long].tolist())
        values[long] = [int(text[a:z]) for a, z in spans]
    return values


def _read(doc: _Tokens, source_name: str) -> Instance:
    """The instance, with every token classified, converted and checked at
    once; when a check fails, the error that :func:`_locate` finds."""
    starts, ends, codes, semis = doc.starts, doc.ends, doc.codes, doc.semis
    n = len(starts)
    # statement s holds the tokens bounds[s]:bounds[s + 1]
    bounds = np.concatenate(([0], np.searchsorted(starts, semis)))
    sizes = bounds[1:] - bounds[:-1]
    if doc.header_error is not None or bounds[-1] < n or sizes.min(initial=1) < 1 or (
        doc.solid.take(semis + 1).any()  # a ';' that does not end its word
    ):
        return _locate(doc)
    lead, kind, width = kinds = _kinds(codes, starts, ends)
    heads = np.flatnonzero(kind == _HEAD)
    has_objective = len(heads) == 1

    # the grammar, as the kinds that may follow each other: padded by the
    # end of a constraint before the first token and a coefficient after the
    # last; end[i] says which statement, if any, token i - 1 ends
    role = np.empty(n + 2, np.uint8)
    role[0], role[1:-1], role[-1] = _RHS, kind, _UNSIGNED
    relations = np.flatnonzero((kind == _RELATION) | (kind == _EQUALS))
    rhs = relations + 1
    role[rhs + 1] = np.where(role.take(rhs + 1) < _LITERAL, _RHS, _BAD)
    end = np.zeros(n + 2, np.uint8)
    end[bounds] = 1
    if has_objective:
        s = int(np.searchsorted(bounds, heads[0], "right")) - 1
        end[bounds[s + 1]] = 2
    follows = _FOLLOWS.take((role[:-1] * 9 + role[1:]) * 3 + end[:-1])
    if not follows.all():  # the first error is at the latest in the statement of the pair's later token
        return _locate(doc, starts[min(follows.argmin(), n - 1)], kinds)
    if len(heads) > 1 or has_objective and doc.text[starts[heads[0]] : ends[heads[0]]] != b"min:":
        return _locate(doc, 0, kinds)
    # each coefficient and literal holds digits after its prefix, and nothing
    # else: every digit of a token is in one, and their widths add up to them;
    # a relation or 'min:' holds its prefix alone
    if (misfit := np.minimum(width, 1) != (kind < _RHS)).any():  # the first error is by the misfit's statement
        return _locate(doc, starts[misfit.argmax()], kinds)
    if width.sum() != np.count_nonzero(doc.is_digit & doc.solid):
        return _locate(doc, 0, kinds)
    try:
        values = _numbers(doc.text, doc.digit, ends, width)
    except ValueError:  # an integer longer than ``int`` converts
        return _locate(doc, 0, kinds)

    # the term tokens of the objective, then of each constraint in order;
    # regions[s] of them are statement s's
    term = np.flatnonzero(role[1:-1] < _RHS)
    regions = sizes - 2
    if has_objective:
        regions[s] += 1
        if s:
            a, z = np.searchsorted(term, bounds[s : s + 2])
            term = np.concatenate((term[a:z], term[:a], term[z:]))
            regions = np.concatenate((regions[s : s + 1], regions[:s], regions[s + 1 :]))
    term_kind = kind.take(term)
    term_values = values.take(term)
    is_coefficient = term_kind < _LITERAL
    at = np.flatnonzero(is_coefficient)
    # literals before each term, and after the last
    term_starts = np.append(at - np.arange(len(at)), len(term) - len(at))
    is_literal = ~is_coefficient
    try:
        variables = term_values.compress(is_literal).astype(np.int64, copy=False)
    except OverflowError:
        return _locate(doc, 0, kinds)
    negated = term_kind.compress(is_literal) == _NEGATED
    top = int(variables.max(initial=0))
    if variables.min(initial=1) < 1 or (doc.header is not None and top > doc.header[0]):
        return _locate(doc, 0, kinds)
    statement_starts = np.searchsorted(at, _offsets(regions))
    if len(variables) > len(at) and _within_terms(variables[1:] <= variables[:-1], term_starts):
        term_of = np.repeat(np.arange(len(at)), np.diff(term_starts))
        order = np.lexsort((variables, term_of))
        variables, negated = variables[order], negated[order]
        if _within_terms(repeated := variables[1:] == variables[:-1], term_starts):
            return _locate(doc, starts.take(term.take(at.take(term_of[:-1][repeated]))).min(), kinds)

    # signs: a '-' prefix, and both sides of a '<=' constraint negated
    negative = lead.take(term.take(at)) == ord("-")
    rhs_negative = lead.take(rhs) == ord("-")
    rel_lead = lead.take(relations)
    leq = rel_lead == ord("<")
    if leq.any():
        rhs_negative ^= leq
        first_term = statement_starts[int(has_objective)]
        negative[first_term:] ^= np.repeat(leq, np.diff(statement_starts[int(has_objective) :]))
    coefficients = term_values[at]
    coefficients *= 1 - 2 * negative.view(np.int8)
    rhs_values = values[rhs]
    rhs_values *= 1 - 2 * rhs_negative.view(np.int8)
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

    num_variables, declared = doc.header if doc.header is not None else (top, len(relations))
    return Instance(
        coefficients=coefficients,
        term_starts=term_starts,
        variables=variables,
        negated=negated,
        statement_starts=statement_starts,
        relations=tuple(_STORED_AS.take(rel_lead == ord("=")).tolist()),
        rhs=tuple(rhs_values.tolist()),
        has_objective=has_objective,
        num_variables=num_variables,
        declared_constraints=declared,
        source_name=source_name,
    )


def _last_line(head: bytes) -> tuple[int, bytes]:
    """The 1-based number and the text of the last line of ``head``: a
    document's bytes up to a position, after an added line end."""
    number = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return number, head[max(head.rfind(b"\n"), head.rfind(b"\r")) + 1 :]


def _locate(doc: _Tokens, hint: int = 0, kinds: tuple | None = None) -> NoReturn:
    """Raise the first error that reading a document token by token meets:
    its lines', each statement's (a constraint's relation error first, a
    term's when the token after it is read), then the largest index's.  The
    statements up to the one holding byte ``hint``, if given, come first;
    ``kinds`` are the tokens' :func:`_kinds`, if the caller has them."""
    text, semis = doc.text, doc.semis

    def fail(reason: str, a: int, z: int = 0, **fields) -> NoReturn:
        line, before = _last_line(text[:a])  # at byte a, with the token text[a:z]
        reason = reason.format(tok=text[a:z].decode("utf-8", "surrogatepass"), **fields)
        raise OpbParseError(reason, line, len(before.decode("utf-8", "surrogatepass")) + 1)

    def found(where, s, met, at, reason):
        w = np.flatnonzero(where)
        keys.append([x[w] if np.ndim(x) else np.full(len(w), x) for x in (s, met, len(reasons), at)])
        reasons.append(reason)

    # a ';' ends a statement only when it ends its run of token bytes and ';'s
    stops = semis[~doc.solid.take(semis + 1) & (doc.codes.take(semis + 1) != ord(";"))]
    tokens = doc.starts, doc.ends
    if len(stops) < len(semis):
        word = doc.solid.copy()
        word[np.setdiff1d(semis, stops)] = True
        tokens = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T + 1  # starts, ends
    bounds = np.concatenate(([0], np.searchsorted(tokens[0], stops)))
    empty = stops[np.diff(bounds) == 0][:1].tolist()
    if doc.header_error is not None and doc.header_error < (empty or [len(text)])[0]:
        fail(_TOO_LONG, doc.header_error)
    for a in empty:
        fail("empty statement", a)
    if bounds[-1] < len(tokens[0]):
        fail("statement missing ';' terminator", tokens[0][-1])

    for cut in dict.fromkeys((np.searchsorted(stops, hint) + 1 if hint else len(stops), len(stops))):
        starts, ends = (t[: bounds[cut]] for t in tokens)  # of the statements :cut
        lead, kind, width = (k[: len(starts)] for k in kinds) if kinds else _kinds(doc.codes, starts, ends)
        seen = np.cumsum(doc.is_digit[: ends[-1]], dtype=np.uint32)  # digits, modulo 2**32
        valid = (np.minimum(width, 1) == (kind < _RHS)) & (seen[ends - 1] - seen[starts - 1] == width)
        is_c, is_l = valid & (kind < _LITERAL), valid & ((kind == _LITERAL) | (kind == _NEGATED))
        long = (is_c | is_l) & (width > (sys.get_int_max_str_digits() or np.inf))  # read as no digits
        loose = (ends - starts == 1) & ((lead == ord("<")) | (lead == ord(">")))
        first, last = bounds[:cut], bounds[1 : cut + 1] - 1
        statements, index = np.arange(cut), np.arange(len(starts))
        objective = valid.take(first) & (kind.take(first) == _HEAD)
        objective[objective] = [text[a : a + 4] == b"min:" for a in starts[first[objective]].tolist()]
        stmt = np.repeat(statements, last - first + 1)
        # each statement's relations, their count and first two; its terms, tokens lo:hi
        rel = np.flatnonzero(loose | valid & ((kind == _RELATION) | (kind == _EQUALS)))
        count = np.bincount(stmt[rel], minlength=cut)
        r1, r2 = np.append(rel, [0, 0])[np.searchsorted(stmt[rel], statements) + [[0], [1]]]
        lo, hi = first + objective, np.where(objective, last + 1, last - 1)
        opens = index == lo.take(stmt)
        inside = (index >= lo.take(stmt)) & (index < hi.take(stmt))
        lit = inside & is_l & ~opens
        follows_c = np.append(False, is_c[:-1])
        # the token after each token's term, and each later use of an index in a term
        term_end = np.append(np.flatnonzero(~lit), len(lit))[np.cumsum(~lit)]
        uses = np.flatnonzero(lit)
        terms, value = term_end[uses], _numbers(text, doc.digit, ends[uses], (width * ~long)[uses])
        twice = np.zeros(len(uses), bool)
        sub = np.flatnonzero(np.isin(terms, terms[1:][(np.diff(terms) == 0) & (np.diff(value) <= 0)]))
        order = sub[np.lexsort((value[sub], terms[sub]))]  # the terms whose indices do not increase
        twice[order[1:][(np.diff(terms[order]) == 0) & (np.diff(value[order]) == 0)]] = True
        keys, reasons = [], []  # (statement, token where met, call below, token at) of each error
        found(objective & (np.cumsum(objective) > 1), statements, -1, first, "multiple objective lines")
        found(~objective & (count == 0), statements, -1, first, "constraint has no relation")
        found(~objective & (count > 1), statements, -1, r2, "multiple relations in one constraint")
        reason = "relation {tok!r} not allowed (use >=, <= or =)"
        found(~objective & loose.take(r1), statements, -1, r1, reason)
        reason = "expected a single right-hand side after the relation"
        found(~objective & (r1 != last - 1), statements, -1, r1, reason)
        found(~objective & ~is_c.take(last), statements, -1, last, "malformed right-hand side {tok!r}")
        found(~objective & (hi <= lo), statements, first, first, "statement has no terms")
        reason = "term with coefficient {tok} has no literals"
        found((hi > lo) & is_c.take(hi - 1, mode="clip"), statements, hi, hi - 1, reason)
        found(inside & ~opens & follows_c & ~is_l, stmt, index, index, "expected literal, got {tok!r}")
        found((lit | ~objective.take(stmt) & (index == last.take(stmt))) & long, stmt, index, index, _TOO_LONG)
        found(inside & is_c & long, stmt, term_end, index, _TOO_LONG)
        reason = ("variable index must be >= 1", "variable x{var} appears twice in one term")
        found((value < 1) | twice, stmt[uses], terms, uses, reason)  # the index below 1, else repeated
        reason = "expected coefficient, got {tok!r}"
        found(inside & ~is_c & (opens | ~follows_c & ~is_l), stmt, index, index, reason)
        # after every statement, the largest index of the document, at its first use
        top, declared = value.max(initial=0), doc.header[0] if doc.header else np.inf
        reason = "undeclared variable x{var} (header declares {declared})"
        reason = reason if top > declared else "variable index x{var} exceeds 2**63 - 1"
        found((value == top) & (top > min(declared, _MAX_INDEX)) & (cut == len(stops)), cut, 0, uses, reason)
        keys = [np.concatenate(column) for column in zip(*keys)]
        if len(keys[0]):
            _, _, code, at = (column[np.lexsort(keys[::-1])[0]] for column in keys)
            reason, var = reasons[code], int(np.append(value, 0)[np.searchsorted(uses, at)])
            reason = reason[var >= 1] if isinstance(reason, tuple) else reason
            fail(reason, starts[at], ends[at], var=var, declared=declared)
    raise AssertionError("the array checks rejected a well-formed document")


def parse_opb(text: str | bytes, source_name: str = "") -> Instance:
    """Parse an OPB document into a validated :class:`Instance`."""
    if isinstance(text, str):
        data = text.encode("utf-8", "surrogatepass")
    else:
        data = text
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line, before = _last_line(b"\n" + data[: exc.start])
                reason = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
                raise OpbParseError(reason, line, len(before) + 1) from None
    return _read(_tokenize(data), source_name)


def parse_opb_file(path: str | Path) -> Instance:
    """Parse an OPB file; its path becomes the ``source_name``."""
    path = Path(path)
    return parse_opb(path.read_bytes(), source_name=str(path))


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
    )
