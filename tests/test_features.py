import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbselect.features import (
    SCHEMAS,
    FeatureVector,
    encode_timestep,
    extract,
    extract_basic,
    extract_linear,
    extract_nonlinear,
    feature_names,
)
from pbselect.grid import make_grid
from pbselect.opb import Constraint, MissingObjectiveError, Term, linearize, parse_opb

from gen import opb_text, random_instance

TOY = "* #variable= 2 #constraint= 1\nmin: +1 x1 -2 x2 ;\n+1 x1 +1 x2 >= 1 ;\n"
TOY_VECTOR = (1.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.5)


def test_schema_sizes():
    assert len(SCHEMAS["basic"]) == 2
    assert len(SCHEMAS["nonlinear"]) == 14
    assert len(SCHEMAS["linear"]) == 9


def test_toy_nonlinear_vector_exact():
    assert extract_nonlinear(parse_opb(TOY)).values == TOY_VECTOR


def test_added_product_term_changes_degree_fraction():
    doc = (
        "* #variable= 2 #constraint= 2\n"
        "min: +1 x1 -2 x2 ;\n"
        "+1 x1 +1 x2 >= 1 ;\n"
        "+3 x1 x2 >= 1 ;\n"
    )
    fv = extract_nonlinear(parse_opb(doc))
    assert fv.values[2] == 1.0  # nonlinear flag set
    assert fv.values[7] == 4 / 5  # degree-1 share over 5 terms
    assert fv.values[8] == 1 / 5  # degree-2 share


def test_no_constraints_degenerate_fractions():
    fv = extract_nonlinear(parse_opb("* #variable= 3 #constraint= 0\nmin: +1 x1 ;\n"))
    assert fv.values[0] == 0.0
    assert fv.values[3:7] == (0.0, 0.0, 0.0, 0.0)
    assert fv.values[12] == 0.0  # no constraint terms either


def test_missing_objective_rejected():
    inst = parse_opb("* #variable= 1 #constraint= 1\n+1 x1 >= 1 ;\n")
    with pytest.raises(MissingObjectiveError):
        extract_nonlinear(inst)
    with pytest.raises(MissingObjectiveError):
        extract_linear(inst)
    assert extract_basic(inst).values == (1.0, 1.0)  # basic has no objective need


def test_linear_projection_identity_on_linear_instances():
    rng = random.Random(21)
    for _ in range(100):
        inst = random_instance(rng, max_vars=15, max_degree=1)
        full = extract_nonlinear(inst).values
        projected = tuple(full[i] for i in (0, 1, 3, 4, 5, 6, 11, 12, 13))
        assert extract_linear(inst).values == projected


def test_linear_counts_follow_linearization():
    doc = "* #variable= 2 #constraint= 1\nmin: +3 x1 x2 ;\n+1 x1 >= 0 ;\n"
    inst = parse_opb(doc)
    fv = extract_linear(inst)
    lin = linearize(inst)
    # recount by hand on the linearized instance: 4 constraints, 3 variables
    assert fv.values[0] == float(len(lin.constraints)) == 4.0
    assert fv.values[1] == float(lin.num_variables) == 3.0
    assert extract_nonlinear(lin).values[11] == fv.values[6]  # obj_size carried over


def _projected_linearization(inst):
    full = extract_nonlinear(linearize(inst)).values
    return tuple(full[i] for i in (0, 1, 3, 4, 5, 6, 11, 12, 13))


@st.composite
def _instances(draw):
    """Instances of degree 1 to 3 over a small pool of products, so that
    products repeat across constraints, occur only in the objective, or
    share variables; constraints may be empty."""
    n_vars = draw(st.integers(3, 8))
    literal = st.tuples(st.integers(1, n_vars), st.booleans())
    products = draw(
        st.lists(
            st.lists(literal, min_size=1, max_size=3, unique_by=lambda lit: lit[0]).map(
                lambda lits: tuple(sorted(lits))
            ),
            min_size=1,
            max_size=5,
        )
    )
    term = st.builds(Term, st.integers(-3, 3).filter(bool), st.sampled_from(products))
    objective = draw(st.lists(term, min_size=1, max_size=4))
    constraints = draw(
        st.lists(
            st.builds(
                Constraint,
                st.lists(term, max_size=5).map(tuple),
                st.sampled_from([">=", "="]),
                st.integers(-5, 5),
            ),
            max_size=6,
        )
    )
    return parse_opb(opb_text(objective, constraints, n_vars, len(constraints)))


@settings(max_examples=150, deadline=None)
@given(_instances())
def test_linear_closed_form_equals_linearize(inst):
    assert extract(inst, "linear").values == _projected_linearization(inst)


def test_linear_closed_form_on_generated_instances():
    rng = random.Random(77)
    for _ in range(300):
        inst = random_instance(rng, max_vars=rng.choice([3, 6, 20]), max_degree=3)
        assert extract(inst, "linear").values == _projected_linearization(inst)


def test_basic_ignores_linearization():
    doc = "* #variable= 2 #constraint= 1\nmin: +3 x1 x2 ;\n+1 x1 >= 0 ;\n"
    assert extract_basic(parse_opb(doc)).values == (1.0, 2.0)


def test_basic_zero_constraints():
    assert extract_basic(parse_opb("* #variable= 3 #constraint= 0\nmin: +1 x1 ;\n")).values == (0.0, 3.0)


def test_encode_timestep_index_encoding():
    grid = make_grid(500, 3600.0, 0.01)
    assert encode_timestep(0, grid) == 0.0
    assert encode_timestep(499, grid) == 499.0
    with pytest.raises(IndexError):
        encode_timestep(500, grid)
    with pytest.raises(IndexError):
        encode_timestep(-1, grid)


def test_encode_timestep_seconds_encoding():
    grid = make_grid(4, 1000.0, 1.0)
    assert encode_timestep(2, grid, "seconds") == grid.points[2]


def test_full_and_names_line_up():
    # a model's input row: the schema's values, then the encoded timestep
    grid = make_grid(10, 100.0, 1.0)
    row = extract_nonlinear(parse_opb(TOY)).values + (encode_timestep(3, grid),)
    assert len(row) == len(feature_names("nonlinear")) == 15
    assert feature_names("nonlinear")[-1] == "timestep"
    assert feature_names("nonlinear", with_timestep=False) == SCHEMAS["nonlinear"]


def test_fraction_families_sum_to_one():
    rng = random.Random(33)
    for _ in range(300):
        inst = random_instance(rng, max_vars=50, max_degree=4)
        v = extract_nonlinear(inst).values
        if inst.constraints:
            assert math.isclose(sum(v[3:7]), 1.0, abs_tol=1e-9)
        assert math.isclose(sum(v[7:11]), 1.0, abs_tol=1e-9)  # objective is never empty here
        assert all(0.0 <= x <= 1.0 for x in v[2:])


def test_reordering_invariance():
    rng = random.Random(55)
    for _ in range(200):
        inst = random_instance(rng, max_vars=30, max_degree=3)
        constraints = list(inst.constraints)
        rng.shuffle(constraints)
        constraints = [
            type(c)(tuple(rng.sample(c.terms, len(c.terms))), c.relation, c.rhs)
            for c in constraints
        ]
        shuffled = parse_opb(
            opb_text(inst.objective, constraints, inst.num_variables, inst.declared_constraints)
        )
        assert extract_nonlinear(shuffled).values == extract_nonlinear(inst).values


def test_vector_schema_validation():
    with pytest.raises(ValueError):
        FeatureVector((1.0, 2.0, 3.0), "basic")
    with pytest.raises(ValueError):
        FeatureVector((1.0, 2.0), "mystery")
    with pytest.raises(ValueError):
        extract(parse_opb(TOY), "mystery")
