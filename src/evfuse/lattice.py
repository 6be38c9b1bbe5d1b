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
up-closed when ``up(b) & ~b == 0``, and its minimal regions are the bits
of ``b & ~up(b)``.

Whether a proposition counts as empty is decided by a :class:`Model`,
which masks out the minterm regions its exclusivity constraints forbid.
Propositions themselves are always kept in unconstrained form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .errors import ExpressionError, ValidationError

MAX_ATOMS = 16
# Deeper parentheses would exhaust Python's recursion limit in the
# recursive-descent parser; no canonical expression needs any.
MAX_NESTING = 100

_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Frame:
    """Ordered set of elementary hypotheses."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not 2 <= len(self.atoms) <= MAX_ATOMS:
            raise ValidationError(
                f"frame needs between 2 and {MAX_ATOMS} atoms, got {len(self.atoms)}"
            )
        seen = set()
        for atom in self.atoms:
            if not isinstance(atom, str) or _ATOM_NAME.fullmatch(atom) is None:
                raise ValidationError(f"invalid atom name {atom!r}")
            if atom in seen:
                raise ValidationError(f"duplicate atom name {atom!r}")
            seen.add(atom)

    @property
    def n(self) -> int:
        return len(self.atoms)

    @cached_property
    def full_bits(self) -> int:
        """Mask with every minterm set; the top element of the lattice."""
        return (1 << (1 << self.n)) - 2

    @cached_property
    def _atom_bits(self) -> tuple[int, ...]:
        # Up-set of the singleton minterm {i}, built by mask doubling.
        out = []
        for i in range(self.n):
            bits = 1 << (1 << i)
            for j in range(self.n):
                if j != i:
                    bits |= bits << (1 << j)
            out.append(bits)
        return tuple(out)

    @cached_property
    def _up_shifts(self) -> tuple[tuple[int, int], ...]:
        # (~a_i, 2**i) per atom: the regions outside atom i, and the
        # shift that adds atom i to each of them
        return tuple((~atom, 1 << i) for i, atom in enumerate(self._atom_bits))

    def _up(self, bits: int) -> int:
        # the regions lying one atom above some region of bits
        up = 0
        for outside, shift in self._up_shifts:
            up |= (bits & outside) << shift
        return up

    @cached_property
    def _term_texts(self) -> dict[int, str]:
        # atom mask -> "A&B", filled as DNF terms are rendered; at most
        # 2**n - 1 entries, living as long as the frame
        return {}

    def _minimal(self, bits: int) -> tuple[int, ...]:
        # the regions of bits with no region of bits one atom below them
        rem = bits & ~self._up(bits)
        out = []
        while rem:
            low = rem & -rem
            rem ^= low
            out.append(low.bit_length() - 1)
        return tuple(out)

    def atom_index(self, ref: int | str) -> int:
        if isinstance(ref, str):
            try:
                return self.atoms.index(ref)
            except ValueError:
                raise ValidationError(f"unknown atom {ref!r}") from None
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
        return parse_prop(self, text)


def _require_same_frame(a: Frame, b: Frame,
                        message: str = "operands belong to different frames") -> None:
    if a is not b and a != b:
        raise ValidationError(message)


@dataclass(frozen=True)
class Proposition:
    """An element of the union/intersection lattice over a frame.

    ``bits`` must be an up-closed minterm family.  The constructors on
    :class:`Frame` and the lattice operations below guarantee this; code
    building masks by hand can check with :meth:`is_up_closed`.
    """

    frame: Frame
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.frame.full_bits:
            raise ValidationError("minterm mask out of range for this frame")

    def __hash__(self) -> int:
        # Propositions key every mass dict; hashing the frame's atom tuple
        # on each lookup would cost more than the lookup.  Equal bits on
        # different frames collide here and are told apart by __eq__.
        return hash(self.bits)

    def __and__(self, other: "Proposition") -> "Proposition":
        _require_same_frame(self.frame, other.frame)
        return Proposition(self.frame, self.bits & other.bits)

    def __or__(self, other: "Proposition") -> "Proposition":
        _require_same_frame(self.frame, other.frame)
        return Proposition(self.frame, self.bits | other.bits)

    @property
    def is_void(self) -> bool:
        """True for the empty proposition (no minterms at all)."""
        return self.bits == 0

    def is_up_closed(self) -> bool:
        return self.frame._up(self.bits) & ~self.bits == 0

    def minimal_minterms(self) -> tuple[int, ...]:
        """Atom masks of the minimal regions present, in ascending order.

        For an up-closed family these generate the whole proposition and
        form the unique DNF antichain.
        """
        return self.frame._minimal(self.bits)

    def dnf_terms(self) -> tuple[tuple[str, ...], ...]:
        """Minimal antichain of atom sets whose union of intersections
        rebuilds this proposition exactly."""
        if self.is_void:
            raise ValidationError("empty proposition has no DNF terms")
        names = self.frame.atoms
        n = self.frame.n
        terms = [
            tuple(names[i] for i in range(n) if m >> i & 1)
            for m in self.minimal_minterms()
        ]
        return tuple(sorted(terms))

    def conflict_parties(self) -> tuple["Proposition", ...]:
        """The minimal union-of-atoms factors whose intersection equals
        this proposition.

        These are the minimal atom sets T meeting every DNF term.  T
        misses some term exactly when the region of the atoms outside T
        is present, so the parties are the minimal elements of the
        absent regions with the mask bit-reversed (region ``R`` becomes
        atom set ``~R``).  Each is returned as the union of its atoms,
        ordered by size then atom position.
        """
        if self.is_void:
            raise ValidationError("empty proposition has no conflict parties")
        return self._conflict_parties

    def atoms_union(self) -> "Proposition":
        """Union of every atom mentioned in the DNF of this proposition."""
        if self.is_void:
            raise ValidationError("empty proposition mentions no atoms")
        return self._atoms_union

    # Each decomposition is computed once per object and lives as long as
    # it; the engine reads its terms from Model._prop, one object per mask.

    @cached_property
    def _conflict_parties(self) -> tuple["Proposition", ...]:
        frame = self.frame
        absent = (frame.full_bits & ~self.bits) | 1  # the empty region is never present
        hitting = int(format(absent, f"0{1 << frame.n}b")[::-1], 2)
        found = sorted(
            frame._minimal(hitting),
            key=lambda mask: (bin(mask).count("1"), [i for i in range(frame.n) if mask >> i & 1]),
        )
        return tuple(self._union_of_atoms(mask) for mask in found)

    @cached_property
    def _atoms_union(self) -> "Proposition":
        return self._union_of_atoms(reduce(or_, self.minimal_minterms(), 0))

    def _union_of_atoms(self, mask: int) -> "Proposition":
        # the union of the atoms whose bits are set in an atom mask
        atom_bits = self.frame._atom_bits
        bits = 0
        for i in range(self.frame.n):
            if mask >> i & 1:
                bits |= atom_bits[i]
        return Proposition(self.frame, bits)

    def text(self) -> str:
        """Canonical DNF rendering; parses back to the same proposition.

        Term strings sort as :meth:`dnf_terms` sorts name tuples, since
        ``&`` sorts below every character an atom name may hold.
        """
        if self.is_void:
            return "∅"
        frame = self.frame
        memo = frame._term_texts
        terms = []
        for mask in self.minimal_minterms():
            term = memo.get(mask)
            if term is None:
                term = memo[mask] = "&".join(
                    name for i, name in enumerate(frame.atoms) if mask >> i & 1)
            terms.append(term)
        terms.sort()
        return "|".join(terms)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"<Proposition {self.text()}>"


@dataclass(frozen=True)
class Model:
    """A frame plus the minterm regions declared impossible.

    ``free`` forbids nothing, ``exclusive`` kills every region where two
    or more atoms overlap, and ``with_exclusions`` kills the regions
    generated by selected exclusive atom pairs.  Models compare by frame
    and constraint mask alone, however they were built.  Emptiness of a
    proposition is always judged against a model; the propositions
    themselves stay unmasked.
    """

    frame: Frame
    constrained: int

    def __post_init__(self):
        if not 0 <= self.constrained <= self.frame.full_bits:
            raise ValidationError("constraint mask out of range for this frame")
        if not Proposition(self.frame, self.constrained).is_up_closed():
            raise ValidationError("constraint mask must be closed upward")
        if all(self.constrained >> (1 << i) & 1 for i in range(self.frame.n)):
            raise ValidationError("model leaves no possible singleton region")

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
        for a, b in pairs:
            i, j = frame.atom_index(a), frame.atom_index(b)
            if i == j:
                raise ValidationError(
                    f"exclusive pair must name two distinct atoms, got ({a!r}, {b!r})"
                )
            bits |= frame._atom_bits[i] & frame._atom_bits[j]
        return cls(frame, bits)

    @cached_property
    def _table(self) -> dict[int, Proposition]:
        # one Proposition per minterm mask, filled by _prop and living as
        # long as the model.  Not on the frame: a Proposition refers to its
        # frame, so a table there would be a cycle only the cyclic GC frees.
        return {}

    def _prop(self, bits: int) -> Proposition:
        """This model's one Proposition with minterm mask ``bits``, so a
        term's cached decomposition lasts as long as the model."""
        p = self._table.get(bits)
        if p is None:
            p = self._table[bits] = Proposition(self.frame, bits)
        return p

    def is_empty(self, p: Proposition) -> bool:
        """True when nothing of p survives outside the constrained regions."""
        _require_same_frame(self.frame, p.frame)
        return p.bits & ~self.constrained == 0


def make_model(frame: Frame, spec) -> Model:
    """Build a model from ``"free"``, ``"exclusive"``, or a pair list."""
    if spec == "free":
        return Model.free(frame)
    if spec == "exclusive":
        return Model.exclusive(frame)
    if isinstance(spec, str):
        raise ValidationError(f"unknown model spec {spec!r}")
    return Model.with_exclusions(frame, spec)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "&|()":
            tokens.append((c, c, i))
            i += 1
            continue
        match = _ATOM_NAME.match(text, i)
        if match is None:
            raise ExpressionError(f"unexpected character {c!r}", i)
        tokens.append(("atom", match.group(), i))
        i = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    # expr := term ('|' term)* ; term := factor ('&' factor)* ;
    # factor := atom | '(' expr ')'

    def __init__(self, frame: Frame, text: str):
        self.frame = frame
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> Proposition:
        p = self._expr()
        kind, value, at = self._peek()
        if kind != "end":
            raise ExpressionError(f"expected '&', '|' or end of input, found {value!r}", at)
        return p

    def _expr(self) -> Proposition:
        p = self._term()
        while self._peek()[0] == "|":
            self._next()
            p = p | self._term()
        return p

    def _term(self) -> Proposition:
        p = self._factor()
        while self._peek()[0] == "&":
            self._next()
            p = p & self._factor()
        return p

    def _factor(self) -> Proposition:
        kind, value, at = self._next()
        if kind == "atom":
            try:
                return self.frame.atom(value)
            except ValidationError:
                raise ExpressionError(f"unknown atom {value!r}", at) from None
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            kind, value, at = self._next()
            if kind != ")":
                raise ExpressionError("expected ')'", at)
            return p
        what = "end of input" if kind == "end" else repr(value)
        raise ExpressionError(f"expected atom or '(', found {what}", at)


def parse_prop(frame: Frame, text: str) -> Proposition:
    """Parse a proposition expression; '&' binds tighter than '|'."""
    return _Parser(frame, text).parse()

