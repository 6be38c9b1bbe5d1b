"""Basic belief assignments and per-proposition column bookkeeping."""

from __future__ import annotations

from math import inf
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

from .errors import ValidationError
from .lattice import Model, Proposition, _require_same_frame

SUM_TOLERANCE = 1e-9

Assignments = Mapping[Proposition, float] | Iterable[tuple[Proposition, float]]


def _clean_assignments(model: Model, assignments: Assignments, allow_conflict: bool):
    items = assignments.items() if isinstance(assignments, Mapping) else assignments
    frame = model.frame
    # Every focal element shares the model's frame, so its minterm mask
    # alone identifies it: merge on the masks, keep the first Proposition.
    props: dict[int, Proposition] = {}
    merged: dict[int, float] = {}
    for prop, value in items:
        if not isinstance(prop, Proposition):
            raise ValidationError(f"focal element must be a Proposition, got {prop!r}")
        _require_same_frame(prop.frame, frame, "focal element belongs to a different frame")
        value = float(value)
        if not 0.0 <= value < inf:  # also false for NaN
            problem = "negative" if value < 0.0 else "non-finite"
            raise ValidationError(f"{problem} mass {value!r} on {prop.text()}")
        if value > 0.0:
            bits = prop.bits
            props.setdefault(bits, prop)
            merged[bits] = merged.get(bits, 0.0) + value
    total = sum(merged.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValidationError(f"masses sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    visible = ~model.constrained
    cleaned: dict[Proposition, float] = {}
    for bits in sorted(merged):
        if not allow_conflict and not bits & visible:
            raise ValidationError(
                f"focal element {props[bits].text()} is empty under the model"
            )
        cleaned[props[bits]] = merged[bits] / total
    return cleaned


class MassFunction:
    """A belief assignment: positive masses on propositions, summing to 1.

    ``terms`` maps each focal element to its mass, in mask order.  Input
    sources may not put mass on anything the model declares empty.  The
    stored conjunctive product and combination outputs may retain such
    mass (the open-world transfer keeps it on ∅, and the no-transfer
    rules keep the conflicting terms themselves); those are built with
    ``allow_conflict=True``.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: Model, assignments: Assignments, *, allow_conflict: bool = False):
        self.model = model
        self.terms = _clean_assignments(model, assignments, allow_conflict)

    @property
    def frame(self):
        return self.model.frame

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def focal(self) -> tuple[Proposition, ...]:
        return tuple(self.terms)

    def mass(self, p: Proposition) -> float:
        return self.terms.get(p, 0.0)

    def as_dict(self) -> dict[Proposition, float]:
        return dict(self.terms)

    def conflict_mass(self) -> float:
        """Total mass sitting on propositions empty under the model."""
        return sum(v for p, v in self.terms.items() if self.model.is_empty(p))

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
        for q, v in self.terms.items():
            masked = q.bits & visible
            if masked and masked & ~target == 0:
                total += v
        return total

    def plausibility(self, p: Proposition) -> float:
        """Mass on everything whose overlap with p survives the model."""
        _require_same_frame(p.frame, self.frame)
        visible = ~self.model.constrained
        return sum(
            v for q, v in self.terms.items() if q.bits & p.bits & visible
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.model == other.model and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; compare by value only

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.text()}: {v:.6f}" for p, v in self.terms.items())
        return f"MassFunction({{{inner}}})"


def vbf(model: Model) -> MassFunction:
    """The vacuous assignment: all mass on total ignorance."""
    return MassFunction(model, {model.frame.total_ignorance(): 1.0})


@dataclass(frozen=True)
class ColumnSums:
    """Per-proposition totals of the raw source masses seen so far."""

    model: Model
    sums: dict[Proposition, float]
    source_count: int

    @classmethod
    def empty(cls, model: Model) -> "ColumnSums":
        return cls(model, {}, 0)

    def value(self, p: Proposition) -> float:
        return self.sums.get(p, 0.0)

    def add(self, m: MassFunction) -> "ColumnSums":
        if m.model != self.model:
            raise ValidationError("mass function uses a different model")
        merged = dict(self.sums)
        for p, v in m.items():
            merged[p] = merged.get(p, 0.0) + v
        if len(merged) > len(self.sums):  # kept in mask order; only a new key breaks it
            merged = {p: merged[p] for p in sorted(merged, key=lambda q: q.bits)}
        return ColumnSums(self.model, merged, self.source_count + 1)


def column_sums(masses: Iterable[MassFunction]) -> ColumnSums:
    """Accumulate the per-proposition column totals of several sources."""
    masses = list(masses)
    if not masses:
        raise ValidationError("need at least one mass function")
    return reduce(ColumnSums.add, masses, ColumnSums.empty(masses[0].model))


def deviation(a, b) -> float:
    """Largest per-proposition mass difference between two assignments."""
    da, db = a.as_dict(), b.as_dict()
    keys = set(da) | set(db)
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys), default=0.0)
