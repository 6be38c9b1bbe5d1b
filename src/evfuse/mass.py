"""Basic belief assignments and per-proposition column bookkeeping."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import reduce
from math import inf
from operator import sub

from .errors import ValidationError
from .lattice import Model, Proposition, _Frozen, _require_same

SUM_TOLERANCE = 1e-9

Assignments = Mapping[Proposition, float] | Iterable[tuple[Proposition, float]]


def ordered_sum(values):
    """Add ``values`` left to right from int 0, so no values give int 0.

    Builtin ``sum()`` of floats did this until Python 3.12 made it
    compensated; every total in evfuse is taken here, so output is the
    same on every interpreter."""
    total = 0
    for v in values:
        total += v
    return total


def _entering(model: Model, assignments: Assignments):
    # checks the propositions handed in and yields their (bits, value) pairs
    for prop, value in assignments.items() if isinstance(assignments, Mapping) else assignments:
        if not isinstance(prop, Proposition):
            raise ValidationError(f"focal element must be a Proposition, got {prop!r}")
        _require_same(prop.frame, model.frame, "focal element belongs to a different frame")
        yield prop.bits, value


def _summed(model: Model, pairs) -> dict[int, float]:
    """The one value check: ``(bits, value)`` pairs to totals by mask.  Each value
    must convert to a finite float >= 0, as must each mask's total; zeros are dropped."""
    merged: dict[int, float] = {}
    for bits, value in pairs:
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            text = Proposition(model.frame, bits).text()
            raise ValidationError(f"mass on {text} is not a number: {exc}") from None
        if not 0.0 <= value < inf or (value := merged.get(bits, 0.0) + value) == inf:
            problem = "negative" if value < 0.0 else "non-finite"
            text = Proposition(model.frame, bits).text()
            raise ValidationError(f"{problem} mass {value!r} on {text}")
        if value > 0.0:
            merged[bits] = value
    return merged


def _validated(model: Model, merged: dict[int, float], allow_conflict: bool,
               layout=None) -> dict[int, float]:
    """The one validation: ``{bits: value}`` to normalised masses by mask, in mask order.
    A finite total and a positive least value pass as they are; anything else
    (NaN, inf, a negative value, a zero) goes value by value through ``_summed``.
    The total is taken in ``merged``'s own order.  A dict already in mask order
    whose total is exactly 1.0 is kept, not divided: ``v / 1.0 == v``.  ``layout``,
    ``(sorted keys, model-empty keys)`` of ``merged`` as handed in, the latter
    empty where conflict is allowed, stands for those two scans of its keys
    unless ``_summed`` rebuilt it."""
    values = merged.values()
    total = ordered_sum(values)
    if not (total < inf and min(values, default=1.0) > 0.0):
        merged, layout = _summed(model, merged.items()), None
        total = ordered_sum(merged.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValidationError(f"masses sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    if layout is None:
        visible = model.visible
        order = sorted(merged)
        empty = [] if allow_conflict else [b for b in merged if not b & visible]
    else:
        order, empty = layout
    if empty:
        text = Proposition(model.frame, min(empty)).text()
        raise ValidationError(f"focal element {text} is empty under the model")
    if total == 1.0 and order == list(merged):
        return merged
    return {bits: merged[bits] / total for bits in order}


class MassFunction(_Frozen):
    """A belief assignment: positive masses on propositions, summing to 1.

    Only the model and the masses by minterm mask, in mask order, are
    kept; every view builds a fresh Proposition per mask.
    Sources may not put mass on anything the model declares empty; stored
    products and combination outputs may, with ``allow_conflict=True``.
    """

    _fields = ("model", "_masses")
    __hash__ = None  # the masses are a dict

    def __init__(self, model: Model, assignments: Assignments, *, allow_conflict: bool = False):
        self.__dict__.update(model=model, _masses=_validated(
            model, _summed(model, _entering(model, assignments)), allow_conflict))

    @classmethod
    def _of_masks(cls, model: Model, masses: dict, allow_conflict: bool = False,
                  layout=None) -> "MassFunction":
        # the engine's results: the validator without __init__'s proposition checks.
        # It keeps the {mask: mass} dict it is handed, built for this call alone.
        self = cls.__new__(cls)
        self.__dict__.update(model=model,
                             _masses=_validated(model, masses, allow_conflict, layout))
        return self

    @property
    def frame(self):
        return self.model.frame

    @property
    def terms(self) -> dict[Proposition, float]:
        return dict(self.items())

    def items(self) -> list[tuple[Proposition, float]]:
        frame = self.model.frame
        return [(Proposition(frame, bits), v) for bits, v in self._masses.items()]

    def __len__(self) -> int:
        return len(self._masses)

    def focal(self) -> tuple[Proposition, ...]:
        frame = self.model.frame
        return tuple(Proposition(frame, bits) for bits in self._masses)

    def mass(self, p: Proposition) -> float:
        # the same bits on another frame are another proposition
        same = p.frame is self.frame or p.frame == self.frame
        return self._masses.get(p.bits, 0.0) if same else 0.0

    def conflict_mass(self) -> float:
        """Total mass sitting on propositions empty under the model."""
        visible = self.model.visible
        return ordered_sum(v for bits, v in self._masses.items() if not bits & visible)

    def is_input_valid(self) -> bool:
        """True when usable as a source: no mass on empty propositions.
        Every stored mass is > 0, so that is no conflicting mask at all."""
        visible = self.model.visible
        for bits in self._masses:
            if not bits & visible:
                return False
        return True

    def belief(self, p: Proposition) -> float:
        """Mass provably inside p, with constrained regions masked out.

        Focal elements that are themselves empty under the model carry
        no support for anything and are skipped; with no focal element
        left, the belief is int 0, as in :meth:`plausibility`.
        """
        _require_same(p.frame, self.frame)
        visible = self.model.visible
        return ordered_sum(v for bits, v in self._masses.items()
                           if (masked := bits & visible) and not masked & ~p.bits)

    def plausibility(self, p: Proposition) -> float:
        """Mass on everything whose overlap with p survives the model."""
        _require_same(p.frame, self.frame)
        visible = self.model.visible
        return ordered_sum(v for bits, v in self._masses.items() if bits & p.bits & visible)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p.text()}: {v:.6f}" for p, v in self.items())
        return f"MassFunction({{{inner}}})"


def vbf(model: Model) -> MassFunction:
    """The vacuous assignment: all mass on total ignorance."""
    return MassFunction(model, {model.frame.total_ignorance(): 1.0})


class ColumnSums(_Frozen):
    """Per-proposition totals of the raw source masses seen so far, by minterm mask in
    no particular order.  Keys are any propositions on the model's frame, model-empty
    ones too (``add`` of a stored product), and every total is finite and > 0, so
    ``rules._plan`` weighs a conflict party exactly when it is a key."""

    _fields = ("model", "source_count", "_masses")
    __hash__ = None  # the sums are a dict

    def __init__(self, model: Model, sums: Mapping[Proposition, float], source_count: int):
        if type(source_count) is not int or source_count < 0:
            raise ValidationError(f"source_count must be an int >= 0, got {source_count!r}")
        self.__dict__.update(model=model, source_count=source_count,
                             _masses=_summed(model, _entering(model, sums)))

    @classmethod
    def empty(cls, model: Model) -> "ColumnSums":
        return cls(model, {}, 0)

    @property
    def sums(self) -> dict[Proposition, float]:
        frame, masses = self.model.frame, self._masses
        return {Proposition(frame, bits): masses[bits] for bits in sorted(masses)}

    def add(self, m: MassFunction) -> "ColumnSums":
        _require_same(m.model, self.model, "mass function uses a different model")
        merged = dict(self._masses)
        for bits, v in m._masses.items():
            merged[bits] = merged.get(bits, 0.0) + v
        out = ColumnSums.__new__(ColumnSums)  # sums of validated sources: no checks to rerun
        out.__dict__.update(model=self.model, source_count=self.source_count + 1, _masses=merged)
        return out

    def __repr__(self) -> str:
        return f"ColumnSums({self.sums!r}, source_count={self.source_count})"


def column_sums(masses: Iterable[MassFunction]) -> ColumnSums:
    """Accumulate the per-proposition column totals of several sources."""
    masses = list(masses)
    if not masses:
        raise ValidationError("need at least one mass function")
    return reduce(ColumnSums.add, masses, ColumnSums.empty(masses[0].model))


def deviation(a, b) -> float:
    """Largest per-proposition mass difference between two assignments on one frame.
    Every MassFunction keeps its masses in mask order, so equal key sets line
    up value by value and need no lookups."""
    _require_same(a.frame, b.frame)
    da, db = a._masses, b._masses
    if da.keys() == db.keys():
        return max(map(abs, map(sub, da.values(), db.values())), default=0.0)
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in da.keys() | db.keys()), default=0.0)
