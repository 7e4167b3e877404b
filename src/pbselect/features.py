"""Instance features for solver selection.

Three schemas are supported:

* ``basic``     -- constraint and variable counts only (2 features).
* ``nonlinear`` -- the full 14-feature set computed on the instance as-is.
* ``linear``    -- the features of the linearized instance (see
                   :func:`pbselect.opb.linearize`), computed in closed form
                   from the distinct products without linearizing; the
                   features tied to term degree become redundant and are
                   dropped (9 left).

The full ordering is: number of constraints; number of variables; a 0/1
flag for the presence of nonlinear (degree >= 2) terms; the fraction of
constraints with 1 / 2 / 3 / >=4 terms; the fraction of terms (objective
plus constraints) of degree 1 / 2 / 3 / >=4; the share of all terms that
sit in the objective; and the fraction of positive-coefficient terms among
constraint terms and among objective terms.  A timestep feature can be
appended as the final entry.  Empty denominators yield 0, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import TimestepGrid
from .opb import Instance, MissingObjectiveError

BASIC = "basic"
NONLINEAR = "nonlinear"
LINEAR = "linear"

TIMESTEP_FEATURE = "timestep"

_NONLINEAR_NAMES = (
    "n_constraints",
    "n_variables",
    "nonlinear",
    "c_terms_1",
    "c_terms_2",
    "c_terms_3",
    "c_terms_4",
    "t_degree_1",
    "t_degree_2",
    "t_degree_3",
    "t_degree_4",
    "obj_size",
    "pos_constr",
    "pos_obj",
)
# linear mode drops the nonlinearity flag and the term-degree block
_LINEAR_KEEP = (0, 1, 3, 4, 5, 6, 11, 12, 13)

SCHEMAS: dict[str, tuple[str, ...]] = {
    BASIC: _NONLINEAR_NAMES[:2],
    NONLINEAR: _NONLINEAR_NAMES,
    LINEAR: tuple(_NONLINEAR_NAMES[i] for i in _LINEAR_KEEP),
}

TIMESTEP_ENCODINGS = ("index", "seconds")


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]
    schema: str
    timestep: float | None = None

    def __post_init__(self):
        if self.schema not in SCHEMAS:
            raise ValueError(f"unknown feature schema {self.schema!r}")
        if len(self.values) != len(SCHEMAS[self.schema]):
            raise ValueError(
                f"schema {self.schema!r} expects {len(SCHEMAS[self.schema])} values, "
                f"got {len(self.values)}"
            )


def feature_names(schema: str, with_timestep: bool = True) -> tuple[str, ...]:
    base = SCHEMAS[schema]
    return base + (TIMESTEP_FEATURE,) if with_timestep else base


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def _bucket(n: int) -> int:
    return min(n, 4) - 1


def _full_values(inst: Instance, linearized: bool) -> tuple[float, ...]:
    """The full feature set of ``inst``, or of ``linearize(inst)`` without
    building it: each distinct k-literal product becomes one variable and
    k + 1 constraints, k of two terms and one of k + 1 terms, which hold
    k + 1 positive-coefficient terms; every term then has degree 1."""
    if inst.objective is None:
        raise MissingObjectiveError(
            f"feature extraction needs an objective (instance {inst.source_name!r})"
        )
    degrees = [0, 0, 0, 0]
    products = set()
    pos_obj = 0
    for t in inst.objective:
        degrees[_bucket(len(t.literals))] += 1
        if len(t.literals) > 1:
            products.add(t.literals)
        if t.coefficient > 0:
            pos_obj += 1
    c_sizes = [0, 0, 0, 0]
    pos_constr = n_constr_terms = 0
    for c in inst.constraints:
        if c.terms:
            c_sizes[_bucket(len(c.terms))] += 1
        n_constr_terms += len(c.terms)
        for t in c.terms:
            degrees[_bucket(len(t.literals))] += 1
            if len(t.literals) > 1:
                products.add(t.literals)
            if t.coefficient > 0:
                pos_constr += 1
    n_cons, n_vars = len(inst.constraints), inst.num_variables
    n_obj_terms = len(inst.objective)
    if linearized:
        for p in products:
            k = len(p)
            n_cons += k + 1
            c_sizes[1] += k
            c_sizes[_bucket(k + 1)] += 1
            n_constr_terms += 3 * k + 1
            pos_constr += k + 1
        n_vars += len(products)
        degrees = [n_obj_terms + n_constr_terms, 0, 0, 0]
    total_terms = n_obj_terms + n_constr_terms
    return (
        float(n_cons),
        float(n_vars),
        float(bool(products) and not linearized),
        *(_frac(k, n_cons) for k in c_sizes),
        *(_frac(k, total_terms) for k in degrees),
        _frac(n_obj_terms, total_terms),
        _frac(pos_constr, n_constr_terms),
        _frac(pos_obj, n_obj_terms),
    )


def extract_nonlinear(inst: Instance) -> FeatureVector:
    return FeatureVector(_full_values(inst, linearized=False), NONLINEAR)


def extract_linear(inst: Instance) -> FeatureVector:
    """The full set of the linearized instance, minus the degree-related entries."""
    values = _full_values(inst, linearized=True)
    return FeatureVector(tuple(values[i] for i in _LINEAR_KEEP), LINEAR)


def extract_basic(inst: Instance) -> FeatureVector:
    return FeatureVector((float(len(inst.constraints)), float(inst.num_variables)), BASIC)


_EXTRACTORS = {BASIC: extract_basic, NONLINEAR: extract_nonlinear, LINEAR: extract_linear}


def extract(inst: Instance, schema: str) -> FeatureVector:
    try:
        fn = _EXTRACTORS[schema]
    except KeyError:
        raise ValueError(f"unknown feature schema {schema!r}") from None
    return fn(inst)


def encode_timestep(index: int, grid: TimestepGrid, encoding: str = "index") -> float:
    if not 0 <= index < grid.count:
        raise IndexError(f"timestep index {index} out of range [0, {grid.count})")
    if encoding == "index":
        return float(index)
    if encoding == "seconds":
        return grid.points[index]
    raise ValueError(f"unknown timestep encoding {encoding!r}")
