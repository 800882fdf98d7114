"""Numerical laboratory for small-noise fluctuation expansions of the
overdamped Langevin dynamics in the double-well potential
V(x) = |x|^4 / 4 - |x|^2 / 2.
"""

__version__ = "0.1.0"

from .hierarchy import InitialLaw, SimConfig, simulate_batch
from .model import DomainError
from .observables import Observable, ParseError, parse_polynomial
from .recursions import RationalTable, c_table, d_table

__all__ = [
    "DomainError",
    "InitialLaw",
    "Observable",
    "ParseError",
    "RationalTable",
    "SimConfig",
    "__version__",
    "c_table",
    "d_table",
    "parse_polynomial",
    "simulate_batch",
]
