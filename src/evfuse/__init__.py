"""Belief-function combination with order-invariant streaming fusion.

Build a :class:`Frame`, choose a :class:`Model` (free, exclusive, or
pairwise exclusions), assign masses to parsed propositions, stream any
number of sources through a :class:`FusionState` and take rule snapshots
on demand; :func:`combine2` is the snapshot of a two-source fold.
"""

from .errors import ExpressionError, TotalConflictError, ValidationError
from .lattice import Frame, Model, Proposition, make_model
from .mass import ColumnSums, MassFunction, column_sums, deviation, vbf
from .rules import (
    Rule,
    apply_transfer,
    conjunctive,
    sdli2,
    transfer_dempster,
    transfer_sdli,
    transfer_smets,
    transfer_union,
    transfer_yager,
)
from .engine import FusionState, combine2, oracle_conjunctive

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
    "apply_transfer",
    "column_sums",
    "combine2",
    "conjunctive",
    "deviation",
    "make_model",
    "oracle_conjunctive",
    "sdli2",
    "transfer_dempster",
    "transfer_sdli",
    "transfer_smets",
    "transfer_union",
    "transfer_yager",
    "vbf",
]
