"""Anytime algorithm selection for pseudo-Boolean optimization portfolios.

Exports the OPB model, its reader and writer, the timestep grid and
:func:`extract`, the one feature extractor: ``extract(inst, schema)``.
"""

__version__ = "0.1.0"

from .features import FeatureVector, extract
from .grid import TimestepGrid, make_grid
from .opb import Constraint, Instance, Term, is_linear, linearize, parse_opb, serialize

__all__ = [
    "Constraint",
    "FeatureVector",
    "Instance",
    "Term",
    "TimestepGrid",
    "extract",
    "is_linear",
    "linearize",
    "make_grid",
    "parse_opb",
    "serialize",
    "__version__",
]
