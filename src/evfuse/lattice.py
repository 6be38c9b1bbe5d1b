"""Frames of discernment and the lattice of propositions over them.

A proposition is stored as a bitmask over Venn-diagram minterms: bit M
(1 <= M < 2**n) marks the region lying inside exactly the atoms named by
the bits of M.  The minterm families closed upward under superset are
exactly the propositions generated from the atoms by union and
intersection, so ``&`` / ``|`` on the mask implement the lattice
operations and integer equality is a canonical identity test.

Decomposition works on whole masks, never one minterm at a time.  With
``a_i`` the mask of atom i, ``up(b) = OR_i (b & ~a_i) << 2**i`` is the
set of regions lying one atom above some region of ``b``: ``b`` is
up-closed when ``up(b) & ~b == 0``.  The minimal regions of an up-closed
mask are *peeled*: the lowest region present is minimal, so record it,
clear every region above it (the AND of its atoms' masks) and repeat.

Whether a proposition counts as empty is decided by a :class:`Model`,
which masks out the minterm regions its exclusivity constraints forbid.
Propositions themselves are always kept in unconstrained form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import attrgetter

from .errors import ExpressionError, ValidationError

MAX_ATOMS = 16
# An input limit on open parentheses; no canonical expression nests any.
MAX_NESTING = 100

_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# an operator, an atom name or any other non-space character; finditer skips spaces
_TOKEN = re.compile(rf"([&|()])|({_ATOM_NAME.pattern})|(\S)")


class _Frozen:
    """Base of the immutable value classes.  Each names its fields in
    ``_fields`` and stores them through ``__dict__``; instances compare with
    their own class, hash (unless ``__hash__ = None``) and print by those
    fields, and assigning or deleting an attribute raises AttributeError.
    Pickle and deepcopy copy that dict (a Frame rebuilds from its atoms
    instead); weakrefs work."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))  # the field values, in C

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Frame(_Frozen):
    """Ordered set of elementary hypotheses."""

    _fields = ("atoms",)

    def __init__(self, atoms: tuple[str, ...]):
        if not isinstance(atoms, (tuple, list)):
            raise ValidationError(f"atoms must be a tuple or list of names, got {atoms!r}")
        atoms = tuple(atoms)
        if not 2 <= len(atoms) <= MAX_ATOMS:
            raise ValidationError(
                f"frame needs between 2 and {MAX_ATOMS} atoms, got {len(atoms)}"
            )
        for k, atom in enumerate(atoms):
            if not isinstance(atom, str) or _ATOM_NAME.fullmatch(atom) is None:
                raise ValidationError(f"invalid atom name {atom!r}")
            if atom in atoms[:k]:
                raise ValidationError(f"duplicate atom name {atom!r}")
        # atom i's regions: 2**i absent then 2**i present, doubled to span 2**n
        atom_bits = []
        for i in range(len(atoms)):
            bits, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while width < 1 << len(atoms):
                bits |= bits << width
                width <<= 1
            atom_bits.append(bits)
        # full_bits, every minterm set, is the top of the lattice.  The two memos
        # live as long as the frame.  _regions (read by _text, filled by _region)
        # maps a region to (the regions not above it, its term text "A&B"), and
        # _plans (read and filled by rules._plan) a (constraint mask, transfer)
        # pair to the routing plan of the last stored key layout: ints, bools and
        # sequences of them, and for a weighted split the keys view that keeps its
        # column sums' dict alive until the next build.  Nothing in either memo
        # refers to the frame, so they form no reference cycle.
        self.__dict__.update(atoms=atoms, full_bits=(1 << (1 << len(atoms))) - 2,
                             _atom_bits=tuple(atom_bits), _regions={}, _plans={})

    def __reduce__(self):
        # pickle and deepcopy rebuild the tables rather than copy the memos
        return (Frame, (self.atoms,))

    @property
    def n(self) -> int:
        return len(self.atoms)

    def _up(self, bits: int) -> int:
        # the regions lying one atom above some region of bits
        up = 0
        for i, atom in enumerate(self._atom_bits):
            up |= (bits & ~atom) << (1 << i)
        return up

    def _text(self, bits: int) -> str:
        """The canonical DNF of the up-closed mask ``bits``; ``∅`` for 0.  The lowest
        region present has no subset present, so it is a term; clearing its up-set
        leaves the other terms, and the peel ends on any mask in range.  Term strings
        sort as their name tuples would, since ``&`` sorts below every character an
        atom name may hold.  A region's memo entry holds its term and the frame's
        regions not above it, a positive mask that clears the region's up-set in one
        AND; region 0 lies inside no atom and keeps nothing, so a mask holding it
        empties.  A memoised term costs about three whole-mask operations."""
        if not bits:
            return "∅"
        memo, terms = self._regions, []
        while bits:
            region = (bits ^ (bits - 1)).bit_length() - 1
            below, term = memo.get(region) or self._region(region)
            terms.append(term)
            bits &= below
        terms.sort()
        return "|".join(terms)

    def _region(self, region: int) -> tuple[int, str]:
        # fills _regions: a region's up-set is the AND of its atoms' masks, so its entry
        # ORs its highest atom's complement into the entry of the region less that atom
        entry = (0, "")  # region 0
        if region:
            i = region.bit_length() - 1
            below, term = self._regions.get(rest := region ^ (1 << i)) or self._region(rest)
            entry = (below | (self.full_bits ^ self._atom_bits[i]),
                     f"{term}&{self.atoms[i]}" if rest else self.atoms[i])
        self._regions[region] = entry
        return entry

    def _route(self, bits: int) -> tuple[tuple[int, ...], int]:
        """The conflict parties' masks of ``bits`` and their union, computed
        on each call (``rules._plan`` keeps a key layout's routes); ``((0,),
        0)`` for 0.  The parties are the minimal atom sets T meeting every DNF
        term.  T misses a term exactly when the region of the atoms outside T
        is absent, so they are the complements of the maximal absent regions.
        The highest absent region is maximal; the union of its complement's
        atoms, ORed from that party's own atoms, holds every region but those
        below it, so ANDing it into the absent mask leaves the next highest
        maximal.  Parties sort by size then atom positions.  The terms form an
        antichain, so atom v of term E and the atoms outside E meet every
        term and shrink to a party holding v: their union is the atom union."""
        top, atom_bits, found, whole = (1 << self.n) - 1, self._atom_bits, [], 0
        absent = (self.full_bits & ~bits) | 1  # the empty region is never present
        while absent:
            rest, positions, union = top ^ (absent.bit_length() - 1), [], 0
            while rest:
                i = (rest & -rest).bit_length() - 1
                positions.append(i)
                union |= atom_bits[i]
                rest &= rest - 1
            found.append((len(positions), positions, union))
            absent &= union
            whole |= union
        found.sort()
        return tuple(party for *_, party in found), whole

    def atom_index(self, ref: int | str) -> int:
        if isinstance(ref, str):
            try:
                return self.atoms.index(ref)
            except ValueError:
                raise ValidationError(f"unknown atom {ref!r}") from None
        if isinstance(ref, bool) or not isinstance(ref, int):
            raise ValidationError(f"atom reference must be a name or an int position, got {ref!r}")
        if not 0 <= ref < self.n:
            raise ValidationError(f"atom index {ref} out of range")
        return ref

    def atom(self, ref: int | str) -> "Proposition":
        """The elementary proposition for one atom, by name or position."""
        return Proposition(self, self._atom_bits[self.atom_index(ref)])

    def total_ignorance(self) -> "Proposition":
        """The union of all atoms; never empty under any model."""
        return Proposition(self, self.full_bits)

    def empty(self) -> "Proposition":
        """The empty proposition; legal only as a combination output."""
        return Proposition(self, 0)

    def parse(self, text: str) -> "Proposition":
        """Parse a proposition expression; '&' binds tighter than '|'.

        One pass over the tokens on minterm masks.  ``union`` ORs the finished
        terms of the innermost open group and ``term`` ANDs the factors of its
        current term; ``(`` pushes the pair and ``)`` folds the group into the
        term of the pair it pops.  ``operand`` is true where an atom or ``(``
        must come next.
        """
        full = self.full_bits
        stack = []
        union, term, operand = 0, full, True
        for kind, value, at in _tokenize(text):
            if operand:
                if kind == "atom":
                    try:
                        term &= self._atom_bits[self.atoms.index(value)]
                    except ValueError:
                        raise ExpressionError(f"unknown atom {value!r}", at) from None
                    operand = False
                elif kind == "(":
                    if len(stack) == MAX_NESTING:
                        raise ExpressionError(f"parentheses nested deeper than {MAX_NESTING}", at)
                    stack.append((union, term))
                    union, term = 0, full
                else:
                    what = "end of input" if kind == "end" else repr(value)
                    raise ExpressionError(f"expected atom or '(', found {what}", at)
            elif kind == "&":
                operand = True
            elif kind == "|":
                union, term, operand = union | term, full, True
            elif kind == ")" and stack:
                group = union | term
                union, term = stack.pop()
                term &= group
            elif stack:
                raise ExpressionError("expected ')'", at)
            elif kind != "end":
                raise ExpressionError(f"expected '&', '|' or end of input, found {value!r}", at)
        return Proposition(self, union | term)


def _require_same(a, b, message: str = "operands belong to different frames") -> None:
    # the one identity shortcut, on every model and frame check of a fold (verify -7.9% without)
    if a is not b and a != b:
        raise ValidationError(message)


def _require_mask(frame: Frame, bits, what: str) -> None:
    # an int, not a bool, within the frame's minterms; region 0 lies in no atom
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise ValidationError(f"{what} mask must be an int, got {bits!r}")
    if bits & 1 or not 0 <= bits <= frame.full_bits:
        raise ValidationError(f"{what} mask out of range for this frame")


class Proposition(_Frozen):
    """An element of the union/intersection lattice over a frame.

    ``bits`` must be an up-closed minterm family.  The constructors on
    :class:`Frame` and the lattice operations below guarantee this; code
    building masks by hand can check with :meth:`is_up_closed`.  A
    proposition is a plain value and caches nothing; its DNF text is
    memoised on the frame, and its parties and atom union are computed on
    each call.
    """

    _fields = ("frame", "bits")

    def __init__(self, frame: Frame, bits: int):
        _require_mask(frame, bits, "minterm")
        self.__dict__.update(frame=frame, bits=bits)

    def __and__(self, other: "Proposition") -> "Proposition":
        _require_same(self.frame, other.frame)
        return Proposition(self.frame, self.bits & other.bits)

    def __or__(self, other: "Proposition") -> "Proposition":
        _require_same(self.frame, other.frame)
        return Proposition(self.frame, self.bits | other.bits)

    @property
    def is_void(self) -> bool:
        """True for the empty proposition (no minterms at all)."""
        return self.bits == 0

    def is_up_closed(self) -> bool:
        return self.frame._up(self.bits) & ~self.bits == 0

    def minimal_minterms(self) -> tuple[int, ...]:
        """Atom masks of the regions present with no region present one
        atom below them, in ascending order.

        For an up-closed family these are its minimal regions, which
        generate the whole proposition and form the unique DNF antichain;
        the kernel peels them in :meth:`Frame._text`.
        """
        rem = self.bits & ~self.frame._up(self.bits)
        out = []
        while rem:
            low = rem & -rem
            rem ^= low
            out.append(low.bit_length() - 1)
        return tuple(out)

    def conflict_parties(self) -> tuple["Proposition", ...]:
        """The minimal union-of-atoms factors whose intersection equals
        this proposition, ordered by size then atom position; see
        :meth:`Frame._route`."""
        if self.is_void:
            raise ValidationError("empty proposition has no conflict parties")
        return tuple(Proposition(self.frame, g) for g in self.frame._route(self.bits)[0])

    def atoms_union(self) -> "Proposition":
        """Union of every atom mentioned in the DNF of this proposition."""
        if self.is_void:
            raise ValidationError("empty proposition mentions no atoms")
        return Proposition(self.frame, self.frame._route(self.bits)[1])

    def text(self) -> str:
        """Canonical DNF rendering; parses back to the same proposition.
        Its terms are joined by ``|`` and their atoms by ``&``; see :meth:`Frame._text`."""
        return self.frame._text(self.bits)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"<Proposition {self.text()}>"


class Model(_Frozen):
    """A frame plus the minterm regions declared impossible.

    ``free`` forbids nothing, ``exclusive`` kills every region where two
    or more atoms overlap, and ``with_exclusions`` kills the regions
    generated by selected exclusive atom pairs.  Models compare by frame
    and constraint mask alone, however they were built.  Emptiness of a
    proposition is always judged against a model; the propositions
    themselves stay unmasked.
    """

    _fields = ("frame", "constrained")

    def __init__(self, frame: Frame, constrained: int):
        _require_mask(frame, constrained, "constraint")
        if frame._up(constrained) & ~constrained:
            raise ValidationError("constraint mask must be closed upward")
        if all(constrained >> (1 << i) & 1 for i in range(frame.n)):
            raise ValidationError("model leaves no possible singleton region")
        # visible, the regions allowed, is no field: eq, hash and repr skip it
        self.__dict__.update(frame=frame, constrained=constrained,
                             visible=frame.full_bits & ~constrained)

    @classmethod
    def free(cls, frame: Frame) -> "Model":
        return cls(frame, 0)

    @classmethod
    def exclusive(cls, frame: Frame) -> "Model":
        bits = frame.full_bits
        for i in range(frame.n):
            bits &= ~(1 << (1 << i))
        return cls(frame, bits)

    @classmethod
    def with_exclusions(cls, frame: Frame, pairs) -> "Model":
        """Constrain every region lying inside both atoms of each pair."""
        bits = 0
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValidationError(f"exclusive pair must be two atom references, got {pair!r}")
            a, b = pair
            i, j = frame.atom_index(a), frame.atom_index(b)
            if i == j:
                raise ValidationError(
                    f"exclusive pair must name two distinct atoms, got ({a!r}, {b!r})"
                )
            bits |= frame._atom_bits[i] & frame._atom_bits[j]
        return cls(frame, bits)

    def is_empty(self, p: Proposition) -> bool:
        """True when nothing of p survives outside the constrained regions."""
        _require_same(self.frame, p.frame)
        return not p.bits & self.visible


def make_model(frame: Frame, spec) -> Model:
    """Build a model from ``"free"``, ``"exclusive"``, or a pair list."""
    if spec == "free":
        return Model.free(frame)
    if spec == "exclusive":
        return Model.exclusive(frame)
    if isinstance(spec, str) or not isinstance(spec, Iterable):
        raise ValidationError(f"unknown model spec {spec!r}")
    return Model.with_exclusions(frame, spec)


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        op, atom, other = match.groups()
        at = match.start()
        if other:
            raise ExpressionError(f"unexpected character {other!r}", at)
        tokens.append((op, op, at) if op else ("atom", atom, at))
    tokens.append(("end", "", len(text)))
    return tokens
