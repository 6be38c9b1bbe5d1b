"""Order-invariant streaming fusion built on a stored pre-transfer state.

Transfer-based rules are not associative on their own: chaining them
source by source bakes early redistributions into later products.  The
engine instead keeps the raw conjunctive accumulator (plus running
column sums for the proportional transfer) and applies a transfer only
when a decision snapshot is requested.  That makes every catalog rule
commutative, order-invariant, and incrementally updatable: fusing the
stored state with a new source equals re-fusing everything from scratch.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as _cartesian

from .errors import ValidationError
from .lattice import Model, _Frozen, _require_same
from .mass import ColumnSums, MassFunction, ordered_sum, vbf
from .rules import Rule, apply_transfer, conjunctive

MAX_STATE_BITS = 1 << 27  # input limit on a fold's product, in mask bits (terms x 2**n): 16 MiB


class FusionState(_Frozen):
    """Stored fusion state: the conjunctive accumulator and the column sums,
    both by minterm mask.  The next fold and any snapshot need nothing else;
    the model is the accumulator's.

    States are immutable; :meth:`fuse` returns the successor state and
    :meth:`snapshot` never touches the stored values.
    """

    _fields = ("accumulator", "columns", "prune_epsilon")

    def __init__(self, accumulator: MassFunction, columns: ColumnSums,
                 prune_epsilon: float = 0.0):
        eps = prune_epsilon  # an int or float, not a bool; NaN fails the range
        if not isinstance(eps, (int, float)) or isinstance(eps, bool) or not 0.0 <= eps < 1.0:
            raise ValidationError(f"prune_epsilon must lie in [0, 1), got {eps!r}")
        _require_same(columns.model, accumulator.model, "column sums use a different model")
        self.__dict__.update(accumulator=accumulator, columns=columns, prune_epsilon=eps)

    @classmethod
    def initial(cls, model: Model, prune_epsilon: float = 0.0) -> "FusionState":
        """Fresh state: vacuous accumulator, no columns, no sources."""
        return cls(vbf(model), ColumnSums.empty(model), prune_epsilon)

    @property
    def model(self) -> Model:
        return self.accumulator.model

    @property
    def source_count(self) -> int:
        return self.columns.source_count

    def fuse(self, m: MassFunction) -> "FusionState":
        """Fold one more source into the stored accumulator.

        The new accumulator is the conjunctive product of the old one
        with the source, never of any transferred snapshot.  A source with
        model-empty mass, then one whose product could pass ``MAX_STATE_BITS``,
        then one of another model is refused before the product is built.
        """
        if not m.is_input_valid():
            raise ValidationError("source puts mass on model-empty propositions")
        terms, n = len(self.accumulator._masses) * len(m._masses), self.model.frame.n
        if terms << n > MAX_STATE_BITS:
            raise ValidationError(
                f"source {self.source_count + 1}: the state could grow to {terms} terms of "
                f"2**{n} bits, past the limit of {MAX_STATE_BITS} mask bits; "
                "prune_epsilon bounds the state")
        _require_same(m.model, self.model, "operands use different models")
        accumulator = conjunctive(self.accumulator, m)
        if self.prune_epsilon > 0.0:
            accumulator = _pruned(accumulator, self.prune_epsilon, self.source_count + 1)
        return FusionState(accumulator, self.columns.add(m), self.prune_epsilon)

    def fold(self, masses) -> "FusionState":
        """Fuse each source in turn."""
        return reduce(FusionState.fuse, masses, self)

    def snapshot(self, rule: Rule | str) -> MassFunction:
        """Decision view of the stored state under a rule.

        Repeated snapshots are identical; the state is never mutated.
        """
        return apply_transfer(rule, self.accumulator, self.columns)


def combine2(rule: Rule | str, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Two-source fold, snapshotted, with the refusals of :meth:`FusionState.fuse`."""
    return FusionState.initial(m1.model).fold((m1, m2)).snapshot(rule)


def _pruned(result: MassFunction, epsilon: float, source: int) -> MassFunction:
    # Approximation flag: dropping tiny terms and renormalizing breaks
    # exact order invariance; off by default.
    kept = {bits: v for bits, v in result._masses.items() if v >= epsilon}
    if not kept:
        raise ValidationError(f"prune_epsilon={epsilon} removed every term at source {source}")
    total = ordered_sum(kept.values())
    return MassFunction._of_masks(result.model, {bits: v / total for bits, v in kept.items()})


def oracle_conjunctive(masses) -> MassFunction:
    """Direct n-way product with no incremental folding.

    Walks the full cartesian product of the focal sets of ``masses``, a
    non-empty list of sources of one model; the reference the streaming
    accumulator is checked against, on each prefix of two or more sources.
    """
    terms = {}
    for combo in _cartesian(*(m._masses.items() for m in masses)):
        bits, weight = combo[0]
        for b, v in combo[1:]:
            bits &= b
            weight *= v
        terms[bits] = terms.get(bits, 0.0) + weight
    return MassFunction._of_masks(masses[0].model, terms)
