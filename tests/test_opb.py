import random

import pytest

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

from gen import random_instance
from oracles import assignments

HEADER = "* #variable= 4 #constraint= 1\n"


def test_parse_basic_document():
    doc = "* #variable= 2 #constraint= 1\nmin: +1 x1 +2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n"
    inst = parse_opb(doc)
    assert inst.num_variables == 2
    assert inst.declared_constraints == 1
    assert len(inst.constraints) == 1
    assert inst.objective == (Term(1, ((1, False),)), Term(2, ((2, False),)))
    assert all(t.degree == 1 for t in inst.all_terms())


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
                if all(c.satisfied((x1, x2, y)) for c in aux_constraints)
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
        products = {t.literals for t in inst.all_terms() if t.degree >= 2}
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
            assert inst.satisfied(assignment) == lin.satisfied(ext)
            if inst.satisfied(assignment):
                assert inst.objective_value(assignment) == lin.objective_value(ext)
    assert checked > 20
