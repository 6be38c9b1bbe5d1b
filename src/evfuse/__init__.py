"""Belief-function combination with order-invariant streaming fusion.

Build a :class:`Frame`, choose a :class:`Model` (free, exclusive, or
pairwise exclusions), assign masses to parsed propositions, stream any
number of sources through a :class:`FusionState` and take rule snapshots
on demand; :func:`combine2` is the snapshot of a two-source fold.  These two
are the one way to fuse; the stages they run are not exported.
"""

from .errors import ExpressionError, TotalConflictError, ValidationError
from .lattice import Frame, Model, Proposition, make_model
from .mass import ColumnSums, MassFunction, deviation, vbf
from .rules import Rule, sdli2
from .engine import FusionState, combine2

__version__ = "0.1.0"

__all__ = [
    "ColumnSums",
    "ExpressionError",
    "Frame",
    "FusionState",
    "MassFunction",
    "Model",
    "Proposition",
    "Rule",
    "TotalConflictError",
    "ValidationError",
    "combine2",
    "deviation",
    "make_model",
    "sdli2",
    "vbf",
]
