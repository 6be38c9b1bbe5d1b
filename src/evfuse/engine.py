"""Order-invariant streaming fusion built on a stored pre-transfer state.

Transfer-based rules are not associative on their own: chaining them
source by source bakes early redistributions into later products.  The
engine instead keeps the raw conjunctive accumulator (plus running
column sums for the proportional transfer) and applies a transfer only
when a decision snapshot is requested.  That makes every catalog rule
commutative, order-invariant, and incrementally updatable: fusing the
stored state with a new source equals refusing everything from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

from .errors import ValidationError
from .lattice import Model
from .mass import ColumnSums, MassFunction, _props_of, vbf
from .rules import Rule, apply_transfer, conjunctive


@dataclass(frozen=True)
class FusionState:
    """Stored fusion state: accumulator, column sums, source labels.

    States are immutable; :meth:`fuse` returns the successor state and
    :meth:`snapshot` never touches the stored values.
    """

    model: Model
    accumulator: MassFunction
    columns: ColumnSums
    labels: tuple[str, ...]
    prune_epsilon: float = 0.0

    @classmethod
    def initial(cls, model: Model, prune_epsilon: float = 0.0) -> "FusionState":
        """Fresh state: vacuous accumulator, no columns, no sources."""
        if not 0.0 <= prune_epsilon < 1.0:
            raise ValidationError("prune_epsilon must lie in [0, 1)")
        return cls(model, vbf(model), ColumnSums.empty(model), (), prune_epsilon)

    @property
    def source_count(self) -> int:
        return self.columns.source_count

    def fuse(self, m: MassFunction, label: str | None = None) -> "FusionState":
        """Fold one more source into the stored accumulator.

        The new accumulator is the conjunctive product of the old one
        with the source, never of any transferred snapshot.
        """
        if not m.is_input_valid():
            raise ValidationError("source puts mass on model-empty propositions")
        accumulator = conjunctive(self.accumulator, m)
        if self.prune_epsilon > 0.0:
            accumulator = _pruned(accumulator, self.prune_epsilon)
        name = label if label is not None else f"source_{self.source_count + 1}"
        return FusionState(
            self.model,
            accumulator,
            self.columns.add(m),
            self.labels + (name,),
            self.prune_epsilon,
        )

    def fold(self, masses, labels=None) -> "FusionState":
        """Fuse each source in turn, named by ``labels`` when given."""
        masses = list(masses)
        labels = [None] * len(masses) if labels is None else list(labels)
        if len(labels) != len(masses):
            raise ValidationError(
                f"expected {len(masses)} labels, one per source, got {len(labels)}"
            )
        state = self
        for m, label in zip(masses, labels):
            state = state.fuse(m, label)
        return state

    def snapshot(self, rule: Rule | str) -> MassFunction:
        """Decision view of the stored state under a rule.

        Repeated snapshots are identical; the state is never mutated.
        """
        return apply_transfer(rule, self.accumulator, self.columns)


def _pruned(result: MassFunction, epsilon: float) -> MassFunction:
    # Approximation flag: dropping tiny terms and renormalizing breaks
    # exact order invariance; off by default.
    kept = {bits: v for bits, v in result._masses.items() if v >= epsilon}
    if not kept:
        raise ValidationError("pruning threshold removed every term")
    total = sum(kept.values())
    return MassFunction(result.model, ((bits, v / total) for bits, v in kept.items()),
                        props=_props_of(result), allow_conflict=True)


def batch(model: Model, masses, rule: Rule | str) -> MassFunction:
    """Fuse a list of sources, then take a single decision snapshot."""
    masses = list(masses)
    if not masses:
        raise ValidationError("need at least one source")
    return FusionState.initial(model).fold(masses).snapshot(rule)


def oracle_conjunctive(masses) -> MassFunction:
    """Direct n-way product with no incremental folding.

    Walks the full cartesian product of the sources' focal sets; the
    reference the streaming accumulator is checked against.
    """
    masses = list(masses)
    if len(masses) < 2:
        raise ValidationError("the oracle needs at least two sources")
    model = masses[0].model
    if any(m.model != model for m in masses):
        raise ValidationError("sources use different models")
    terms = {}
    for combo in _cartesian(*(list(m.items()) for m in masses)):
        prop, weight = combo[0]
        for p, v in combo[1:]:
            prop = prop & p
            weight *= v
        terms[prop] = terms.get(prop, 0.0) + weight
    return MassFunction(model, terms, allow_conflict=True)
