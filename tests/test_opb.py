import random
import re
import runpy
from pathlib import Path

import pytest

from pbselect import opb
from pbselect.opb import (
    Constraint,
    Instance,
    OpbParseError,
    Term,
    is_linear,
    linearize,
    parse_opb,
    serialize,
)

from gen import mutate_document, random_instance, vary_layout
from oracles import assignments, constraint_satisfied, objective_value, oracle_parse_opb, satisfied

HEADER = "* #variable= 4 #constraint= 1\n"


def test_parse_basic_document():
    doc = "* #variable= 2 #constraint= 1\nmin: +1 x1 +2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n"
    inst = parse_opb(doc)
    assert inst.num_variables == 2
    assert inst.declared_constraints == 1
    assert len(inst.constraints) == 1
    assert inst.objective == (Term(1, ((1, False),)), Term(2, ((2, False),)))
    assert all(t.degree == 1 for t in inst.objective + inst.constraints[0].terms)


def test_parse_nonlinear_without_objective():
    inst = parse_opb("* #variable= 2 #constraint= 1\n+3 x1 x2 >= 1 ;\n")
    assert inst.objective is None
    assert inst.constraints[0].terms == (Term(3, ((1, False), (2, False))),)
    assert not is_linear(inst)


def test_leq_normalized_by_negation():
    inst = parse_opb("* #variable= 1 #constraint= 1\n+1 x1 <= 2 ;\n")
    assert inst.constraints[0] == Constraint((Term(-1, ((1, False),)),), ">=", -2)


def test_equality_kept():
    inst = parse_opb(HEADER + "+1 x1 +1 x2 = 1 ;\n")
    assert inst.constraints[0].relation == "="


def test_negated_literals():
    inst = parse_opb(HEADER + "+2 ~x1 x3 >= 1 ;\n")
    assert inst.constraints[0].terms[0].literals == ((1, True), (3, False))


def test_literals_sorted_within_term():
    inst = parse_opb(HEADER + "+2 x3 x1 >= 1 ;\n")
    assert inst.constraints[0].terms[0].literals == ((1, False), (3, False))


def test_zero_coefficient_terms_dropped():
    inst = parse_opb(HEADER + "+0 x1 +2 x2 >= 1 ;\n")
    assert inst.constraints[0].terms == (Term(2, ((2, False),)),)


def test_multiline_statement():
    inst = parse_opb(HEADER + "+1 x1\n+1 x2 >= 1 ;\n")
    assert len(inst.constraints[0].terms) == 2


def test_header_optional_counts_inferred():
    inst = parse_opb("min: +1 x7 ;\n+1 x2 >= 1 ;\n")
    assert inst.num_variables == 7
    assert inst.declared_constraints == 1


_PARSE_ERRORS = [
    # (document, message fragment, line, column) of the raised OpbParseError
    (HEADER + "+1 y1 >= 1 ;\n", "literal", 2, 4),  # malformed token
    (HEADER + "+1 x9 >= 1 ;\n", "undeclared variable x9", 2, 4),
    (HEADER + "+1 x1 x1 >= 1 ;\n", "twice", 2, 7),
    (HEADER + "+1 x1 ~x1 >= 1 ;\n", "twice", 2, 7),
    (HEADER + "+1 x1 >= 1\n", "terminator", 2, 10),
    (HEADER + "+1 x1 > 1 ;\n", "relation", 2, 7),
    (HEADER + "+1 x1 == 1 ;\n", "relation", 2, 1),
    (HEADER + "+1 x1 >= ;\n", "right-hand side", 2, 7),
    (HEADER + "min: +1 x1 ;\nmin: +1 x2 ;\n", "multiple objective", 3, 1),
    (HEADER + ">= 1 ;\n", "no terms", 2, 1),
    (HEADER + "+1 >= 1 ;\n", "no literals", 2, 1),
    (HEADER + "+1 x0 >= 1 ;\n", ">= 1", 2, 4),
    # glued terminators: the token before the ';' keeps its own column
    (HEADER + "min: +1 x9;\n", "undeclared variable x9", 2, 9),
    (HEADER + "+1 x1 >= y;\n", "right-hand side 'y'", 2, 10),
    # a statement spanning lines, two statements on one line, a comment line
    (HEADER + "+1 x1\n+2 y2 >= 1 ;\n", "expected literal, got 'y2'", 3, 4),
    (HEADER + "+1 x1\n+1 x2 >= 1\n", "terminator", 3, 10),
    (HEADER + "+1 x1 >= 1 ; +1 x2 > 1 ;\n", "relation '>'", 2, 20),
    (HEADER + "* a comment\n+1 x1 x1 >= 1 ;\n", "twice", 3, 7),
    # '<=' constraints are negated, their positions are not
    (HEADER + "+1 x1 -1 x7 <= 1 ;\n", "undeclared variable x7", 2, 10),
    (HEADER + "+1 x1 +2 zz <= 1 ;\n", "expected literal, got 'zz'", 2, 10),
    # the first occurrence of the largest index is the one reported
    (HEADER + "+1 x5 >= 1 ;\n+1 x2 +1 x5 >= 1 ;\n", "undeclared variable x5", 2, 4),
    (HEADER + "  ;\n", "empty statement", 2, 3),
    (HEADER + "+1 x1 >= 1 = 2 ;\n", "multiple relations", 2, 12),
    (HEADER + "x1 >= 1 ;\n", "expected coefficient, got 'x1'", 2, 1),
    # integers longer than the interpreter converts (4,300 digits by default)
    (HEADER + "min: +" + "1" * 5000 + " x1 ;\n", "more digits", 2, 6),
    (HEADER + "+1 x1 >= " + "9" * 5000 + " ;\n", "more digits", 2, 10),
    (HEADER + "min: +1 x" + "1" * 5000 + " ;\n", "more digits", 2, 9),
    ("* #variable= " + "9" * 5000 + " #constraint= 0\nmin: +1 x1 ;\n", "more digits", 1, 14),
    # ... also beside an integer that does not fit int64
    (HEADER + "+12345678901234567890 x1 >= " + "9" * 5000 + " ;\n", "more digits", 2, 29),
    # bytes that are not UTF-8, at their 1-based byte column
    (b"* caf\xe9\nmin: +1 x1 ;\n", "invalid UTF-8 byte 0xe9", 1, 6),
    (HEADER.encode() + "* \u00e9".encode() + b"\xff\n", "invalid UTF-8 byte 0xff", 2, 5),
    # which error comes first: a constraint's relation error before its terms'
    (HEADER + "+1 y1 > 1 ;\n", "relation '>'", 2, 7),
    (HEADER + "+1 y1 >= 1 = 2 ;\n", "multiple relations", 2, 12),
    # in a term, what reading meets first, then its coefficient, then its indices
    (HEADER + "+" + "1" * 5000 + " x" + "1" * 5000 + " >= 1 ;\n", "more digits", 2, 5003),
    (HEADER + "+" + "1" * 5000 + " y >= 1 ;\n", "expected literal, got 'y'", 2, 5003),
    (HEADER + "+" + "1" * 5000 + " x1 x1 >= 1 ;\n", "integer has more digits", 2, 1),
    # a statement's error before the whole document's
    (HEADER + "+1 x9 >= 1 ;\n+1 y >= 1 ;\n", "expected literal, got 'y'", 3, 4),
    (HEADER + "mix: +1 x1 ;\n", "no relation", 2, 1),
    ("min: +1 x9223372036854775808 ;\n", "exceeds 2**63 - 1", 1, 9),
    # a ';' ends a statement only when it ends its word
    (HEADER + "+1 x1;x2 >= 1 ;\n", "expected literal, got 'x1;x2'", 2, 4),
    (HEADER + "+1 x1 >= 1 ;;\n", "expected a single right-hand side", 2, 7),
    # the errors of the lines, in document order
    ("* #variable= " + "9" * 5000 + " #constraint= 0\nmin: +1 x1 ;\n ;\n", "more digits", 1, 14),
    (" ; * #variable= 3 #constraint= 1\nmin: +1 x1 ;\n", "empty statement", 1, 2),
]


@pytest.mark.parametrize(
    "doc,fragment,line,column",
    _PARSE_ERRORS,
    ids=[f"{doc[:80]}-{fragment}" for doc, fragment, _, _ in _PARSE_ERRORS],
)
def test_parse_errors(doc, fragment, line, column):
    with pytest.raises(OpbParseError) as err:
        parse_opb(doc)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)
    assert not _assert_same(doc)


def test_error_carries_position():
    with pytest.raises(OpbParseError) as err:
        parse_opb(HEADER + "+1 x1 +2 zz >= 1 ;\n")
    assert err.value.line == 2
    assert err.value.column == 10


def test_roundtrip_handwritten():
    doc = (
        "* #variable= 5 #constraint= 3\n"
        "min: +1 x1 -2 x2 x3 ;\n"
        "+1 x1 +1 ~x2 >= 1 ;\n"
        "-3 x3 x4 x5 = -2 ;\n"
        "+7 x5 >= 0 ;\n"
    )
    inst = parse_opb(doc)
    assert parse_opb(serialize(inst)) == inst
    assert serialize(inst) == doc


def test_roundtrip_random_instances():
    rng = random.Random(7)
    for _ in range(200):
        inst = random_instance(rng, max_vars=20)
        again = parse_opb(serialize(inst))
        assert again == inst


def test_is_linear_cases():
    unary = parse_opb(HEADER + "min: +1 x1 ;\n+1 x2 >= 0 ;\n")
    assert is_linear(unary)
    in_objective = parse_opb(HEADER + "min: +1 x1 x2 ;\n+1 x2 >= 0 ;\n")
    assert not is_linear(in_objective)
    no_constraints = parse_opb("min: +1 x1 ;\n")
    assert is_linear(no_constraints)


# --- linearization -----------------------------------------------------------


def test_linearize_identity_on_linear():
    inst = parse_opb(HEADER + "min: +1 x1 ;\n+1 x2 >= 0 ;\n")
    assert linearize(inst) is inst


def test_linearize_single_product_hand_checked():
    inst = parse_opb("* #variable= 2 #constraint= 1\nmin: +3 x1 x2 ;\n+1 x1 >= 0 ;\n")
    lin = linearize(inst)
    assert lin.num_variables == 3
    assert lin.objective == (Term(3, ((3, False),)),)
    assert len(lin.constraints) == 1 + 3
    # AND-encoding truth table: auxiliary is forced to x1*x2 on all 4 assignments
    aux_constraints = lin.constraints[1:]
    for x1 in (False, True):
        for x2 in (False, True):
            want = x1 and x2
            feasible = [
                y
                for y in (False, True)
                if all(constraint_satisfied(c, (x1, x2, y)) for c in aux_constraints)
            ]
            assert feasible == [want]


def test_linearize_shares_auxiliary_for_identical_products():
    doc = (
        "* #variable= 2 #constraint= 2\n"
        "min: +1 x1 ;\n"
        "+1 x1 x2 >= 1 ;\n"
        "+2 x1 x2 >= 1 ;\n"
    )
    lin = linearize(parse_opb(doc))
    assert lin.num_variables == 3  # exactly one auxiliary variable
    assert lin.constraints[0].terms[0].literals == ((3, False),)
    assert lin.constraints[1].terms[0].literals == ((3, False),)


def test_linearize_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, max_vars=8, max_degree=3)
        once = linearize(inst)
        assert linearize(once) == once
        assert is_linear(once)


def test_linearize_constraint_count_formula():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, max_vars=8, max_degree=4)
        lin = linearize(inst)
        terms = inst.objective + tuple(t for c in inst.constraints for t in c.terms)
        products = {t.literals for t in terms if t.degree >= 2}
        expected = len(inst.constraints) + sum(len(p) + 1 for p in products)
        assert len(lin.constraints) == expected
        assert lin.num_variables == inst.num_variables + len(products)


def test_linearize_fresh_variables_first_occurrence_order():
    doc = (
        "* #variable= 4 #constraint= 2\n"
        "min: +1 x3 x4 ;\n"
        "+1 x1 x2 >= 1 ;\n"
        "+1 x3 x4 >= 1 ;\n"
    )
    lin = linearize(parse_opb(doc))
    # objective product (x3 x4) is scanned first, so it gets x5
    assert lin.objective[0].literals == ((5, False),)
    assert lin.constraints[0].terms[0].literals == ((6, False),)
    assert lin.constraints[1].terms[0].literals == ((5, False),)


def _forced_extension(inst, lin, assignment):
    aux = []
    for var in range(inst.num_variables + 1, lin.num_variables + 1):
        # recover the product the auxiliary stands for from its lower-bound row:
        # +1 y -1 l_1 ... -1 l_k >= 1-k
        for c in lin.constraints[len(inst.constraints):]:
            head = c.terms[0]
            if len(c.terms) > 2 and head.literals == ((var, False),) and head.coefficient == 1:
                value = all(
                    (not assignment[v - 1]) if neg else assignment[v - 1]
                    for t in c.terms[1:]
                    for v, neg in t.literals
                )
                aux.append(value)
                break
    return tuple(assignment) + tuple(aux)


def test_linearize_preserves_satisfiability_and_objective():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        inst = random_instance(rng, max_vars=6, max_constraints=4, max_degree=3)
        lin = linearize(inst)
        if lin is inst:
            continue
        checked += 1
        for assignment in assignments(inst.num_variables):
            ext = _forced_extension(inst, lin, assignment)
            assert satisfied(inst, assignment) == satisfied(lin, ext)
            if satisfied(inst, assignment):
                assert objective_value(inst, assignment) == objective_value(lin, ext)
    assert checked > 20


def test_mutated_documents_parse_or_raise_opb_parse_error():
    # every document that the array checks reject reaches the locator,
    # which must raise; no other exception may escape
    rng = random.Random(8)
    accepted = 0
    for _ in range(2000):
        doc = serialize(random_instance(rng, max_vars=rng.choice([3, 30]), max_degree=3))
        if rng.random() < 0.2:
            doc = doc.replace(">=", "<=")
        try:
            inst = parse_opb(mutate_document(rng, doc, rng.randint(1, 3)))
        except OpbParseError:
            continue
        accepted += 1
        assert parse_opb(serialize(inst)) == inst
    assert 200 < accepted < 1800


# --- the array reader against the line-by-line reader ---------------------------


def _outcome(parse, doc):
    """The instance, or the (reason, line, column) of the parse error."""
    try:
        return parse(doc)
    except OpbParseError as exc:
        return exc.reason, exc.line, exc.column


def _assert_same(doc):
    new, old = _outcome(parse_opb, doc), _outcome(oracle_parse_opb, doc)
    if isinstance(old, Instance):
        assert isinstance(new, Instance) and new == old, doc
        assert new.coefficients.dtype == old.coefficients.dtype, doc
    else:
        assert new == old, doc
    return isinstance(new, Instance)


def _differential_documents(rng, count):
    for _ in range(count):
        doc = serialize(random_instance(rng, max_vars=rng.choice([3, 30]), max_degree=3))
        if rng.random() < 0.2:
            doc = doc.replace(">=", "<=")
        edits = rng.choice([0, 1, 1, 2, 3])
        if edits:
            doc = mutate_document(rng, doc, edits)
        doc = vary_layout(rng, doc)
        yield doc.encode() if rng.random() < 0.5 else doc


def test_array_reader_matches_line_reader_on_mutated_documents():
    rng = random.Random(12)
    accepted = sum(map(_assert_same, _differential_documents(rng, 2000)))
    assert 400 < accepted < 1600


@pytest.mark.parametrize("bad_line", ["none", "first", "middle", "last"])
def test_array_reader_matches_line_reader_on_a_served_size_document(tmp_path, bad_line):
    # the benchmark's generator of served instances, at 100,000 terms, as it
    # is or with a malformed statement before, amid or after its statements
    inputs = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "inputs.py"))
    path = tmp_path / "served.opb"
    serve_instance = inputs["serve_instance"]
    counts = serve_instance(path, random.Random(1), random.Random(2), 100_000, nonlinear=True)
    data = path.read_bytes()
    if bad_line == "none":
        assert _assert_same(data)
        assert len(parse_opb(data).coefficients) == counts.n_terms
        return
    ends = [m.end() for m in re.finditer(rb";\n", data)]
    at = {"first": 0, "middle": ends[len(ends) // 2], "last": len(data)}[bad_line]
    assert not _assert_same(data[:at] + b"+1 x1 >= y ;\n" + data[at:])


# A failed check that names the token or term where it failed hands the
# locator that token's byte, and the locator reads the statements up to it
# first: each document with the text at the byte handed over.
_HINTED = [
    ("width", "min: +1 x1 ;\n+1 x2 >= 1 ;\n+1 x1 + x2 >= 1 ;\n+1 x3 x ~x4 >= 1 ;\n", "+ x2 >= 1"),
    ("repeat", "+1 x2 >= 1 ;\n+1 x3 +2 x1 x1 >= 1 ;\n+1 x2 x2 >= 1 ;\n", "+2 x1 x1"),
    ("repeat before the objective", "+1 x1 >= 1 ;\n+1 x4 x4 >= 1 ;\nmin: +1 x3 x3 ;\n", "+1 x4 x4"),
]


@pytest.mark.parametrize("check,doc,hinted", _HINTED, ids=[check for check, _, _ in _HINTED])
def test_a_failed_check_hands_the_locator_its_first_failure(check, doc, hinted, monkeypatch):
    hints, locate = [], opb._locate

    def spy(tokens, hint=0, kinds=None):
        hints.append(hint)
        return locate(tokens, hint, kinds)

    monkeypatch.setattr(opb, "_locate", spy)
    assert not _assert_same(doc)
    assert hints == [doc.index(hinted) + 1]  # the reader puts a line end before the document


# Documents that the ASCII grammar reads otherwise than the line-by-line
# reader, which splits on Unicode whitespace and line ends and reads Unicode
# digits: each with what it gives now.
_ASCII_DECISIONS = [
    ("min: +\u0661 x1 ;\n", ("expected coefficient, got '+\u0661'", 1, 6)),
    ("min: +1 x\u0661 ;\n", ("expected literal, got 'x\u0661'", 1, 9)),
    ("+1 x1 >= \u0661 ;\n", ("malformed right-hand side '\u0661'", 1, 10)),
    ("min: +1\xa0x1 ;\n", ("expected coefficient, got '+1\\xa0x1'", 1, 6)),
    ("min: +1\x1cx1 ;\n", ("expected coefficient, got '+1\\x1cx1'", 1, 6)),
    ("\xa0* c\nmin: +1 x1 ;\n", ("constraint has no relation", 1, 1)),
    ("min: +1 x1 ;\x0c* note\n", ("statement missing ';' terminator", 1, 16)),
    ("min: +1 x1 ;\u2028* note\n", ("statement missing ';' terminator", 1, 16)),
    ("min: +1 x1 ;\u3000", ("statement missing ';' terminator", 1, 12)),
    ("+1 x1\x0b+1 y1 >= 1 ;\n", ("expected literal, got 'y1'", 1, 10)),
    (b"+1 x1\x0c\xff >= 1 ;\n", ("invalid UTF-8 byte 0xff", 1, 7)),
]


@pytest.mark.parametrize("doc,now", _ASCII_DECISIONS, ids=[repr(d) for d, _ in _ASCII_DECISIONS])
def test_documents_the_ascii_grammar_reads_otherwise(doc, now):
    assert _outcome(parse_opb, doc) == now
    assert _outcome(oracle_parse_opb, doc) != now


def test_header_counts_are_ascii_digits():
    # the line-by-line reader took the Unicode digit for a count of 3
    doc = "* #variable= \u0663 #constraint= 0\nmin: +1 x1 ;\n"
    assert parse_opb(doc).num_variables == 1
    assert oracle_parse_opb(doc).num_variables == 3


def test_layouts_of_one_document_parse_alike():
    plain = parse_opb("* #variable= 3 #constraint= 1\nmin: +1 x1 -2 ~x2 x3 ;\n+1 x1 +1 x3 >= 1 ;\n")
    for doc in (
        "* caf\u00e9\xa0 ; \u0661\n* #variable= 3 #constraint= 1\n"
        "min: +1 x1 -2 ~x2 x3 ;\n+1 x1 +1 x3 >= 1 ;\n",
        "* #variable= 3 #constraint= 1\r\nmin: +1 x1 -2 ~x2 x3 ;\r\n+1 x1 +1 x3 >= 1 ;\r\n",
        "* #variable= 3 #constraint= 1\rmin: +1 x1 -2 ~x2 x3 ;\r+1 x1 +1 x3 >= 1 ;",
        "\t* #variable=\t3\t#constraint=\t1\nmin:\t+1\tx1 -2 ~x2\tx3\t;\t\n\t+1 x1 +1 x3 >= 1 ;\n",
        "* #variable= 3 #constraint= 1\nmin: +1\x0bx1 -2 ~x2\x0cx3 ;\n+1 x1\x0b\x0c+1 x3 >= 1 ;\n",
        "* #variable= 3 #constraint= 1\nmin: +1 x1 -2 ~x2 x3;\n+1 x1\n+1 x3 >= 1;",
    ):
        assert parse_opb(doc) == plain
        assert parse_opb(doc.encode()) == plain
