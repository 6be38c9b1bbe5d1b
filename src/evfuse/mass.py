"""Basic belief assignments and per-proposition column bookkeeping."""

from __future__ import annotations

from functools import reduce
from math import inf
from typing import Iterable, Mapping

from .errors import ValidationError
from .lattice import Model, Proposition, _require_same_frame

SUM_TOLERANCE = 1e-9

Assignments = Mapping[Proposition, float] | Iterable[tuple[Proposition, float]]


def _entering(model: Model, assignments: Assignments):
    # checks the propositions handed in and yields their (bits, value) pairs
    for prop, value in assignments.items() if isinstance(assignments, Mapping) else assignments:
        if not isinstance(prop, Proposition):
            raise ValidationError(f"focal element must be a Proposition, got {prop!r}")
        _require_same_frame(prop.frame, model.frame, "focal element belongs to a different frame")
        yield prop.bits, value


def _validated(model: Model, pairs, allow_conflict: bool) -> dict[int, float]:
    """The one validation: ``(bits, value)`` pairs to normalised masses by mask, in mask order."""
    merged: dict[int, float] = {}
    for bits, value in pairs:
        value = float(value)
        if not 0.0 <= value < inf:  # also false for NaN
            problem = "negative" if value < 0.0 else "non-finite"
            text = Proposition(model.frame, bits).text()
            raise ValidationError(f"{problem} mass {value!r} on {text}")
        if value > 0.0:
            merged[bits] = merged.get(bits, 0.0) + value
    total = sum(merged.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValidationError(f"masses sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    empty = [] if allow_conflict else [b for b in merged if not b & ~model.constrained]
    if empty:
        text = Proposition(model.frame, min(empty)).text()
        raise ValidationError(f"focal element {text} is empty under the model")
    return {bits: merged[bits] / total for bits in sorted(merged)}


class MassFunction:
    """A belief assignment: positive masses on propositions, summing to 1.

    Only the model and the masses by minterm mask, in mask order, are
    kept; every view shows them as the model's one Proposition per mask.
    Sources may not put mass on anything the model declares empty; stored
    products and combination outputs may, with ``allow_conflict=True``.
    """

    __slots__ = ("model", "_masses")

    def __init__(self, model: Model, assignments: Assignments, *, allow_conflict: bool = False):
        self.model = model
        self._masses = _validated(model, _entering(model, assignments), allow_conflict)

    @classmethod
    def _of_masks(cls, model: Model, pairs, allow_conflict: bool = False) -> "MassFunction":
        # the engine's results, from (mask, mass) pairs: the same validator,
        # without the proposition checks of __init__
        self = cls.__new__(cls)
        self.model = model
        self._masses = _validated(model, pairs, allow_conflict)
        return self

    @property
    def frame(self):
        return self.model.frame

    @property
    def terms(self) -> dict[Proposition, float]:
        prop = self.model._prop
        return {prop(bits): v for bits, v in self._masses.items()}

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self._masses)

    def focal(self) -> tuple[Proposition, ...]:
        return tuple(self.terms)

    def mass(self, p: Proposition) -> float:
        # the same bits on another frame are another proposition
        same = p.frame is self.frame or p.frame == self.frame
        return self._masses.get(p.bits, 0.0) if same else 0.0

    def conflict_mass(self) -> float:
        """Total mass sitting on propositions empty under the model."""
        visible = ~self.model.constrained
        return sum(v for bits, v in self._masses.items() if not bits & visible)

    def is_input_valid(self) -> bool:
        """True when usable as a source: no mass on empty propositions."""
        return self.conflict_mass() == 0.0

    def belief(self, p: Proposition) -> float:
        """Mass provably inside p, with constrained regions masked out.

        Focal elements that are themselves empty under the model carry
        no support for anything and are skipped.
        """
        _require_same_frame(p.frame, self.frame)
        visible = ~self.model.constrained
        target = p.bits & visible
        total = 0.0
        for bits, v in self._masses.items():
            masked = bits & visible
            if masked and masked & ~target == 0:
                total += v
        return total

    def plausibility(self, p: Proposition) -> float:
        """Mass on everything whose overlap with p survives the model."""
        _require_same_frame(p.frame, self.frame)
        visible = ~self.model.constrained
        return sum(v for bits, v in self._masses.items() if bits & p.bits & visible)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.model == other.model and self._masses == other._masses

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.text()}: {v:.6f}" for p, v in self.items())
        return f"MassFunction({{{inner}}})"


def vbf(model: Model) -> MassFunction:
    """The vacuous assignment: all mass on total ignorance."""
    return MassFunction(model, {model.frame.total_ignorance(): 1.0})


class ColumnSums:
    """Per-proposition totals of the raw source masses seen so far, kept
    by minterm mask in mask order."""

    __slots__ = ("model", "source_count", "_masses")

    def __init__(self, model: Model, sums: Mapping[Proposition, float], source_count: int):
        self.model, self.source_count = model, source_count
        self._masses = {p.bits: sums[p] for p in sorted(sums, key=lambda p: p.bits)}

    @classmethod
    def empty(cls, model: Model) -> "ColumnSums":
        return cls(model, {}, 0)

    @property
    def sums(self) -> dict[Proposition, float]:
        prop = self.model._prop
        return {prop(bits): v for bits, v in self._masses.items()}

    def value(self, bits: int) -> float:
        """The column total of the proposition with minterm mask ``bits``."""
        return self._masses.get(bits, 0.0)

    def add(self, m: MassFunction) -> "ColumnSums":
        if m.model != self.model:
            raise ValidationError("mass function uses a different model")
        merged = dict(self._masses)
        for bits, v in m._masses.items():
            merged[bits] = merged.get(bits, 0.0) + v
        if len(merged) > len(self._masses):  # kept in mask order; only a new key breaks it
            merged = {bits: merged[bits] for bits in sorted(merged)}
        out = ColumnSums(self.model, {}, self.source_count + 1)
        out._masses = merged
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ColumnSums) and (self.model, self.source_count, self._masses) == (
            other.model, other.source_count, other._masses)

    def __repr__(self) -> str:
        return f"ColumnSums({self.sums!r}, source_count={self.source_count})"


def column_sums(masses: Iterable[MassFunction]) -> ColumnSums:
    """Accumulate the per-proposition column totals of several sources."""
    masses = list(masses)
    if not masses:
        raise ValidationError("need at least one mass function")
    return reduce(ColumnSums.add, masses, ColumnSums.empty(masses[0].model))


def deviation(a, b) -> float:
    """Largest per-proposition mass difference between two assignments on one frame."""
    _require_same_frame(a.frame, b.frame)
    da, db = a._masses, b._masses
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in da.keys() | db.keys()), default=0.0)
