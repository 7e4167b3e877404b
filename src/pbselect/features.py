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

Every feature is a reduction over the arrays of the columnar
:class:`pbselect.opb.Instance`, with no per-term Python work: bincounts of
the term degrees and of the constraint sizes, counts of the positive
coefficients in the objective and in the constraints, and, for the linear
schema, the count and sizes of the distinct products
(:func:`pbselect.opb.products`, the distinct rows of literal codes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimestepGrid
from .opb import Instance, MissingObjectiveError, is_linear, products

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


def _buckets(sizes: np.ndarray) -> list[int]:
    """How many of ``sizes`` are 1, 2, 3 and 4 or more; zeros are not counted."""
    return np.bincount(np.minimum(sizes, 4), minlength=5)[1:].tolist()


def _full_values(inst: Instance, linearized: bool) -> tuple[float, ...]:
    """The full feature set of ``inst``, or of ``linearize(inst)`` without
    building it: each distinct k-literal product becomes one variable and
    k + 1 constraints, k of two terms and one of k + 1 terms, which hold
    k + 1 positive-coefficient terms; every term then has degree 1."""
    if not inst.has_objective:
        raise MissingObjectiveError(
            f"feature extraction needs an objective (instance {inst.source_name!r})"
        )
    degree = np.diff(inst.term_starts)
    n_obj_terms = int(inst.statement_starts[1])
    n_constr_terms = len(degree) - n_obj_terms
    positive = inst.coefficients > 0
    pos_obj = int(np.count_nonzero(positive[:n_obj_terms]))
    pos_constr = int(np.count_nonzero(positive)) - pos_obj
    c_sizes = _buckets(np.diff(inst.statement_starts[1:]))
    nonlinear = not is_linear(inst)
    n_cons, n_vars = len(inst.relations), inst.num_variables
    if linearized and nonlinear:
        k = degree[products(inst)[1]]
        literals, n_products = int(k.sum()), len(k)
        added = _buckets(k + 1)
        added[1] += literals
        c_sizes = [a + b for a, b in zip(c_sizes, added)]
        n_cons += literals + n_products
        n_constr_terms += 3 * literals + n_products
        pos_constr += literals + n_products
        n_vars += n_products
    total_terms = n_obj_terms + n_constr_terms
    degrees = [total_terms, 0, 0, 0] if linearized else _buckets(degree)
    return (
        float(n_cons),
        float(n_vars),
        float(nonlinear and not linearized),
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
    return FeatureVector((float(len(inst.relations)), float(inst.num_variables)), BASIC)


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
