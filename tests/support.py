"""Shared fixture data, expected values, and random-case generators.

All expected numbers below were frozen from independent computations:
either exact rational arithmetic over a set-of-minterms representation
(for the combination fixtures) or hand enumeration (for beliefs and
parties).  Tests compare the package against these constants, never
against values the package itself produced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add
from pathlib import Path

from hypothesis import strategies as st

from evfuse import Frame, FusionState, MassFunction, Model, Proposition, Rule, deviation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Worked three-hypothesis example used across the suite: frame {A, B, C},
# all hypotheses exclusive, four sources over the columns A, B, A|C.
ROWS_M1 = {"A": 0.4, "B": 0.5, "A|C": 0.1}
ROWS_M2 = {"A": 0.6, "B": 0.2, "A|C": 0.2}
ROWS_M3 = {"A": 0.7, "B": 0.2, "A|C": 0.1}
ROWS_M4 = {"A": 0.5, "B": 0.5}

# Conjunctive products (free-form terms, conflicts kept separate).
CONJ_12 = {"A": 0.38, "B": 0.10, "A|C": 0.02, "A&B": 0.38, "A&B|B&C": 0.12}
CONJ_123 = {"A": 0.318, "B": 0.020, "A|C": 0.002, "A&B": 0.610, "A&B|B&C": 0.050}
CONJ_23 = {"A": 0.62, "B": 0.04, "A|C": 0.02, "A&B": 0.26, "A&B|B&C": 0.06}
CONJ_1234 = {"A": 0.160, "B": 0.010, "A&B": 0.804, "A&B|B&C": 0.026}

CONFLICT_12 = 0.50
CONFLICT_123 = 0.66
CONFLICT_1234 = 0.83

# Union (Dubois-Prade / hybrid) transfers of the products above.
UNION_12 = {"A": 0.38, "B": 0.10, "A|C": 0.02, "A|B": 0.38, "A|B|C": 0.12}
UNION_123 = {"A": 0.318, "B": 0.020, "A|C": 0.002, "A|B": 0.610, "A|B|C": 0.050}
UNION_1234 = {"A": 0.160, "B": 0.010, "A|B": 0.804, "A|B|C": 0.026}

DEMPSTER_12 = {"A": 0.76, "B": 0.20, "A|C": 0.04}
SMETS_12 = {"A": 0.38, "B": 0.10, "A|C": 0.02, "∅": 0.50}
YAGER_12 = {"A": 0.38, "B": 0.10, "A|C": 0.02, "A|B|C": 0.50}

# Proportional partial-conflict transfers; exact values are the
# rationals 513/850, 1447/4250, 7/125 and 9319/13000, 691/2600, 113/6500.
SDLI_12 = {"A": 0.603529, "B": 0.340471, "A|C": 0.056000}
SDLI_12_EXACT = {"A": 513 / 850, "B": 1447 / 4250, "A|C": 7 / 125}
SDLI_123 = {"A": 0.716846, "B": 0.265769, "A|C": 0.017385}
SDLI_123_EXACT = {"A": 9319 / 13000, "B": 691 / 2600, "A|C": 113 / 6500}

COLUMNS_12 = {"A": 1.0, "B": 0.7, "A|C": 0.3}
COLUMNS_123 = {"A": 1.7, "B": 0.9, "A|C": 0.4}

# Chained-transfer reference (transfer after every step) showing why the
# stored-state engine is needed: differs from UNION/YAGER snapshots.
YAGER_CHAINED_123 = {"A": 0.668, "B": 0.12, "A|C": 0.052, "A|B|C": 0.16}


def ordered_sum(values):
    """Float totals as evfuse takes them: left to right from int 0.  Builtin
    ``sum()`` compensates from Python 3.12 on, so generators and references
    that must match the package exactly total here."""
    return reduce(add, values, 0)


def abc_model() -> Model:
    return Model.exclusive(Frame(("A", "B", "C")))


def mass_from_rows(model: Model, rows: dict[str, float]) -> MassFunction:
    frame = model.frame
    return MassFunction(model, [(frame.parse(expr), v) for expr, v in rows.items()])


def as_text_dict(mass_like) -> dict[str, float]:
    return {p.text(): v for p, v in mass_like.items()}


def assert_masses(mass_like, expected: dict[str, float], tol: float = 1e-9) -> None:
    actual = as_text_dict(mass_like)
    assert set(actual) == set(expected), (sorted(actual), sorted(expected))
    for key, want in expected.items():
        assert abs(actual[key] - want) <= tol, (key, actual[key], want)


# random-case generation ----------------------------------------------------

_NAMES = ("A", "B", "C", "D", "E")


def random_model(rng: random.Random, n: int | None = None,
                 kinds=("exclusive", "free", "pairs")) -> Model:
    """A free or exclusive model, or one excluding a random non-empty set of atom pairs."""
    if n is None:
        n = rng.randint(2, 4)
    frame = Frame(_NAMES[:n])
    kind = rng.choice(kinds)
    if kind == "pairs":
        pairs = list(combinations(range(n), 2))
        return Model.with_exclusions(frame, rng.sample(pairs, rng.randint(1, len(pairs))))
    return Model.exclusive(frame) if kind == "exclusive" else Model.free(frame)


def union_of_atoms(model: Model, atom_mask: int) -> Proposition:
    frame = model.frame
    p = frame.empty()
    for i in range(frame.n):
        if atom_mask >> i & 1:
            p = p | frame.atom(i)
    return p


def random_prop(rng: random.Random, model: Model) -> Proposition:
    """A random valid focal element for the model's proposition space.

    Exclusive models only admit unions of atoms.  Under any other model it
    is a union of 1-3 intersections, widened by one atom if the model
    empties it.
    """
    frame = model.frame
    if model == Model.exclusive(frame):
        return union_of_atoms(model, rng.randrange(1, 1 << frame.n))
    p = None
    for _ in range(rng.randint(1, 3)):
        mask = rng.randrange(1, 1 << frame.n)
        term = None
        for i in range(frame.n):
            if mask >> i & 1:
                atom = frame.atom(i)
                term = atom if term is None else term & atom
        p = term if p is None else p | term
    return p | frame.atom(rng.randrange(frame.n)) if model.is_empty(p) else p


def random_mass(rng: random.Random, model: Model, max_focal: int = 3) -> MassFunction:
    count = rng.randint(1, max_focal)
    props = [random_prop(rng, model) for _ in range(count)]
    weights = [rng.uniform(0.05, 1.0) for _ in props]
    total = ordered_sum(weights)
    return MassFunction(model, [(p, w / total) for p, w in zip(props, weights)])


def random_sources(rng: random.Random, model: Model, count: int,
                   max_focal: int = 3) -> list[MassFunction]:
    return [random_mass(rng, model, max_focal) for _ in range(count)]


# Hypothesis draws ---------------------------------------------------------------
# The composites of the property tests draw their models and sources here.
# ``source_pairs`` and ``permutation_scenarios`` in test_cli.py draw their
# focal sets with ``draw_focal``; ``exact_lines`` keeps its own draw.

def draw_model(draw, atoms: tuple[int, int], kinds=("free", "exclusive", "pairs")) -> Model:
    """A model on ``atoms[0]``-``atoms[1]`` atoms, of one of ``kinds``: free,
    exclusive, or excluding 1 to n distinct atom pairs."""
    n = draw(st.integers(*atoms))
    frame = Frame(_NAMES[:n])
    kind = draw(st.sampled_from(kinds))
    if kind == "pairs":
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              min_size=1, max_size=n, unique=True))
        return Model.with_exclusions(frame, pairs)
    return Model.free(frame) if kind == "free" else Model.exclusive(frame)


def draw_source(draw, model: Model, focal, denominator: int) -> MassFunction:
    """A source of 1-4 focal sets, each drawn by ``focal()``, with masses
    k/``denominator`` summing to 1."""
    count = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, denominator - 1),
                               min_size=count - 1, max_size=count - 1)))
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denominator])]
    return MassFunction(model, [(focal(), k / denominator) for k in parts])


def draw_focal(draw, model: Model, meets) -> Proposition:
    """A union of 1-3 atoms or, when ``meets`` draws true, of 1-3 intersections
    of two atoms, widened by one atom when the model empties it."""
    frame = model.frame
    atom = st.integers(0, frame.n - 1)
    joined, p = draw(meets), frame.empty()
    for _ in range(draw(st.integers(1, 3))):
        term = frame.atom(draw(atom))
        p = p | (term & frame.atom(draw(atom)) if joined else term)
    return p | frame.atom(draw(atom)) if model.is_empty(p) else p


# reference lattice routines ---------------------------------------------------
# Per-minterm versions of Proposition.is_up_closed, minimal_minterms,
# text and conflict_parties on a raw (frame, bits) pair.  They share no
# code with the whole-mask kernel in evfuse.lattice, which is checked
# against them.

def _ref_minterms(bits: int) -> list[int]:
    # the regions set in bits, ascending, read off its binary digits
    return [m for m, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"]


def ref_is_up_closed(frame: Frame, bits: int) -> bool:
    present = set(_ref_minterms(bits))
    for m in present:
        for i in range(frame.n):
            if not m >> i & 1 and m | 1 << i not in present:
                return False
    return True


def ref_minimal_minterms(frame: Frame, bits: int) -> tuple[int, ...]:
    regions = _ref_minterms(bits)
    present = set(regions)
    out = []
    for m in regions:
        # a smaller region one atom down would make m redundant
        if not any(m >> i & 1 and m ^ (1 << i) in present for i in range(frame.n)):
            out.append(m)
    return tuple(out)


def ref_text(frame: Frame, bits: int) -> str:
    """The DNF rendering as name tuples sorted as tuples, then joined."""
    if bits == 0:
        return "∅"
    terms = sorted(tuple(frame.atoms[i] for i in range(frame.n) if m >> i & 1)
                   for m in ref_minimal_minterms(frame, bits))
    return "|".join("&".join(term) for term in terms)


def text_per_atom(self: Frame, bits: int) -> str:
    """``Frame._text`` as it was before a region's memo entry was built from its
    neighbour's: every missing entry ANDs each of its atoms' masks, and the peel
    clears with the up-set's complement, a negative int.  Only the memo differs
    from that method: a fresh dict per call, not ``self._regions``, whose entries
    now take another form."""
    if not bits:
        return "∅"
    memo, terms = {}, []
    while bits:
        region = (bits & -bits).bit_length() - 1
        if (entry := memo.get(region)) is None:
            up, names, rest = self.full_bits | 1, [], region
            while rest:
                i = (rest & -rest).bit_length() - 1
                up &= self._atom_bits[i]
                names.append(self.atoms[i])
                rest &= rest - 1
            entry = memo[region] = (~up, "&".join(names))
        terms.append(entry[1])
        bits &= entry[0]
    terms.sort()
    return "|".join(terms)


def ref_conflict_parties(frame: Frame, bits: int) -> tuple[int, ...]:
    """Atom masks of the minimal hitting sets of the DNF terms, by
    exhaustive search over the support atoms, by size then position."""
    terms = ref_minimal_minterms(frame, bits)
    support = 0
    for t in terms:
        support |= t
    atoms = [i for i in range(frame.n) if support >> i & 1]
    found: list[int] = []
    for size in range(1, len(atoms) + 1):
        for combo in combinations(atoms, size):
            mask = sum(1 << i for i in combo)
            if any(f & mask == f for f in found):
                continue  # already covered by a smaller hitting set
            if all(mask & t for t in terms):
                found.append(mask)
    return tuple(found)


# reference conjunctive product --------------------------------------------
# The conjunctive stage as one X & Y per pair of focal elements, keyed by
# Proposition, then brought to the stored form of a MassFunction:
# positive terms only, in mask order, divided by their sum.
# evfuse.rules.conjunctive, which multiplies on masks, must equal it
# exactly.

def ref_conjunctive(a, b) -> dict[Proposition, float]:
    out: dict[Proposition, float] = {}
    for x, mx in a.items():
        for y, my in b.items():
            z = x & y
            out[z] = out.get(z, 0.0) + mx * my
    kept = {p: v for p, v in out.items() if v > 0.0}
    total = ordered_sum(kept.values())
    return {p: kept[p] / total for p in sorted(kept, key=lambda p: p.bits)}


# reference column sums and refold ------------------------------------------
# ColumnSums.add adds into a copy in no particular order and sorts only
# when read; verify's checks continue each source list from the state
# after the prefix it shares with the scenario's order.  These are the
# versions that copy and re-sort on every source and refold every list
# from the initial state; both rewrites must equal them exactly.

def ref_column_sums(masses) -> dict[Proposition, float]:
    sums: dict[Proposition, float] = {}
    for m in masses:
        merged = dict(sums)
        for p, v in m.items():
            merged[p] = merged.get(p, 0.0) + v
        sums = {p: merged[p] for p in sorted(merged, key=lambda q: q.bits)}
    return sums


def ref_worst_refold(scenario, rule, source_lists) -> float:
    def initial():
        return FusionState.initial(scenario.start.model, scenario.start.prune_epsilon)

    baseline = initial().fold(scenario.masses).snapshot(rule)
    return max(deviation(initial().fold(masses).snapshot(rule), baseline)
               for masses in source_lists)


# exact reference fold and transfers -----------------------------------------
# The stored state and every transfer in Fraction arithmetic on
# {minterm mask: mass} dicts.  Conflict parties come from
# ref_conflict_parties and atom unions from ref_minimal_minterms, so no
# Frame memo and no evfuse.rules code is involved.  An exact product of
# sources summing to 1 sums to 1, so nothing is renormalised.

def _ref_union(frame: Frame, atoms: int) -> int:
    # the minterm mask of the union of the atoms in an atom mask
    return sum(1 << m for m in range(1, 1 << frame.n) if m & atoms)


def ref_exact_state(masses) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """The exact conjunctive product and column sums of a list of sources."""
    product: dict[int, Fraction] = {}
    columns: dict[int, Fraction] = {}
    for k, m in enumerate(masses):
        source = {p.bits: Fraction(v) for p, v in m.items()}
        for bits, v in source.items():
            columns[bits] = columns.get(bits, 0) + v
        if k == 0:
            product = source
            continue
        out: dict[int, Fraction] = {}
        for x, mx in product.items():
            for y, my in source.items():
                out[x & y] = out.get(x & y, 0) + mx * my
        product = out
    return product, columns


def ref_exact_snapshot(rule, model: Model, product, columns) -> dict[int, Fraction] | None:
    """The exact snapshot of a stored product under a rule, by mask; None
    where Dempster's rule is undefined because every term is in conflict."""
    rule, frame, visible = Rule(rule), model.frame, ~model.constrained
    full = frame.total_ignorance().bits
    if rule in (Rule.CONJUNCTIVE, Rule.DSM_CLASSIC):
        return dict(product)
    kept = {bits: v for bits, v in product.items() if bits & visible}
    if rule is Rule.DEMPSTER:
        total = sum(kept.values())
        return {bits: v / total for bits, v in kept.items()} if total else None

    def union_target(bits):
        atoms = 0
        for m in ref_minimal_minterms(frame, bits):
            atoms |= m
        target = _ref_union(frame, atoms)
        return target if target & visible else full

    def route(bits):
        if rule is Rule.SMETS:
            return [(0, 1)]
        if rule is Rule.YAGER or not bits:
            return [(full, 1)]
        if rule is Rule.SDLI:
            parties = [_ref_union(frame, atoms) for atoms in ref_conflict_parties(frame, bits)]
            weights = [columns.get(g, 0) for g in parties]
            total = sum(weights)
            if total:
                return [(g, w / total) for g, w in zip(parties, weights) if w]
        return [(union_target(bits), 1)]

    out = dict(kept)
    for bits, v in product.items():
        if not bits & visible:
            for target, share in route(bits):
                out[target] = out.get(target, 0) + v * share
    return out


def state_limit_line() -> tuple[list[str], list[dict[str, float]]]:
    """16 free atoms and 20 sources of 4 unions of 1-3 atoms, as the frame's
    names and each source's ``{expression: mass}`` rows.  The state grows
    with every source and each term is a 2**16-bit mask, so the fold passes
    the state limit at source 6."""
    rng, names = random.Random("state-limit"), [chr(ord("A") + i) for i in range(16)]
    return names, [dict(zip(unions_of_atoms(rng, names, 4), (0.4, 0.3, 0.2, 0.1)))
                   for _ in range(20)]


def unions_of_atoms(rng: random.Random, names: list[str], count: int) -> list[str]:
    """``count`` distinct unions of 1-3 of the atom ``names``, drawn from
    ``rng``, as sorted expressions."""
    unions = set()
    while len(unions) < count:
        unions.add("|".join(sorted(rng.sample(names, rng.randint(1, 3)))))
    return sorted(unions)


# the north star's grid ------------------------------------------------------
# (atoms, model, focal sets per source) -> the source that the state limit
# refuses when test_reach.py folds that cell, or None where all 400 sources
# fold.  The fold reads no rule, so one pin holds for all of them.

REACH = {
    (3, "exclusive", 2): None, (3, "free", 2): None, (3, "ring", 2): None,
    (3, "exclusive", 7): None, (3, "free", 7): None, (3, "ring", 7): None,
    (8, "exclusive", 2): 21, (8, "free", 2): 24, (8, "ring", 2): 18,
    (8, "exclusive", 8): 8, (8, "free", 8): 8, (8, "ring", 8): 8,
    (12, "exclusive", 2): 11, (12, "free", 2): 13, (12, "ring", 2): 14,
    (12, "exclusive", 8): 6, (12, "free", 8): 5, (12, "ring", 8): 6,
    (16, "exclusive", 2): 8, (16, "free", 2): 8, (16, "ring", 2): 8,
    (16, "exclusive", 8): 4, (16, "free", 8): 4, (16, "ring", 8): 4,
}


# textbook rules on Shafer's model ------------------------------------------
# Dempster's, Smets' and Yager's n-source rules and the textbook union
# rule on the power set of the atoms (Shafer, "A Mathematical Theory of
# Evidence", 1976), in Fraction arithmetic.  A focal set is the frozenset
# of atoms whose singleton region its mask holds: the set the mask stands
# for under the exclusive model, where every other region is empty.
# Conflict is the mass on the empty set.  Nothing here reads a routing
# entry, a column sum or a stored product.

def atom_set(frame: Frame, bits: int) -> frozenset:
    """The atoms whose singleton region ``bits`` holds."""
    return frozenset(a for i, a in enumerate(frame.atoms) if bits >> (1 << i) & 1)


def _exclusive_frame(model: Model) -> Frame:
    frame = model.frame
    overlaps = sum(1 << r for r in range(1, 1 << frame.n) if r & (r - 1))
    if model.constrained != overlaps:
        raise ValueError("the power-set reference covers the exclusive model only")
    return frame


def ref_shafer(rule, model: Model, masses) -> dict[frozenset, Fraction] | None:
    """The exact combination of the sources on the power set, by atom set:
    ``dempster``, ``smets`` or ``yager`` of any number of sources, or
    ``dubois_prade`` and ``dsm_hybrid`` of exactly two, which send each pair
    of focal sets to X∩Y, or to X∪Y when that meet is empty (Dubois and
    Prade, 1988).  None where Dempster's rule is undefined because no mass
    is kept.  Exclusive models only."""
    rule, frame = Rule(rule), _exclusive_frame(model)
    if rule is Rule.DUBOIS_PRADE or rule is Rule.DSM_HYBRID:
        if len(masses) != 2:
            raise ValueError(f"the {rule.value} reference takes exactly two sources")
        return ref_textbook_union(model, masses)
    product = {frozenset(frame.atoms): Fraction(1)}
    for m in masses:
        out: dict[frozenset, Fraction] = {}
        for x, mx in product.items():
            for p, v in m.items():
                z = x & atom_set(frame, p.bits)
                out[z] = out.get(z, 0) + mx * Fraction(v)
        product = out
    conflict = product.pop(frozenset(), 0)
    if rule is Rule.DEMPSTER:
        kept = sum(product.values())
        return {s: v / kept for s, v in product.items()} if kept else None
    target = {Rule.SMETS: frozenset(), Rule.YAGER: frozenset(frame.atoms)}[rule]
    if conflict:
        product[target] = product.get(target, 0) + conflict
    return product


def ref_textbook_union(model: Model, masses) -> dict[frozenset, Fraction]:
    """The textbook union rule of any number of sources on the power set, by
    atom set: each tuple of focal sets, one per source, goes to its meet
    X1∩…∩Xn, or to the union X1∪…∪Xn of the focal sets when that meet is
    empty (Dubois and Prade, 1988; the S3 term of the hybrid DSm rule on
    Shafer's model).  Exclusive models only."""
    frame = _exclusive_frame(model)
    # (meet, union) of the focal sets taken so far
    tuples = {(frozenset(frame.atoms), frozenset()): Fraction(1)}
    for m in masses:
        out: dict[tuple, Fraction] = {}
        for (meet, union), w in tuples.items():
            for p, v in m.items():
                s = atom_set(frame, p.bits)
                key = (meet & s, union | s)
                out[key] = out.get(key, 0) + w * Fraction(v)
        tuples = out
    result: dict[frozenset, Fraction] = {}
    for (meet, union), w in tuples.items():
        z = meet or union
        result[z] = result.get(z, 0) + w
    return result


# seeded fusion lines for the library-level golden record -----------------
# Each line folds 100-200 sources on a 5-atom frame under one model and
# takes a snapshot under every rule after every source.  Focal sets come
# from a fixed family, so the stored state settles at the family's
# closure under intersection; the intersections reach the lattice terms
# whose conflict parties are not their own operands.  Every source keeps
# mass on a set holding A and on total ignorance, so no line is in total
# conflict and every stored term stays alive.

GOLDEN_ATOMS = ("A", "B", "C", "D", "E")
_GOLDEN_UNIONS = ("A", "B", "C", "A|B", "A|E", "B|C", "C|D", "A|C", "B|D",
                  "A|B|C", "C|D|E", "B|C|D")
_GOLDEN_MEETS = ("A&C", "B&D|A", "A&C|C&E", "A&D|B")
# (line, model kind, source count, prune_epsilon)
GOLDEN_LINES = (
    ("free", "free", 120, 0.0),
    ("exclusive", "exclusive", 160, 0.0),
    ("ring", "ring", 200, 0.0),
    ("ring_pruned", "ring", 100, 1e-4),
)


def golden_model(kind: str, atoms=GOLDEN_ATOMS) -> Model:
    """``free``, ``exclusive`` or ``ring`` (each atom excludes the next, and
    the last the first) on ``atoms``."""
    frame = Frame(atoms)
    if kind == "ring":
        n = frame.n
        return Model.with_exclusions(frame, [(i, (i + 1) % n) for i in range(n)])
    return Model.exclusive(frame) if kind == "exclusive" else Model.free(frame)


def golden_sources(line: str, model: Model, count: int) -> list[MassFunction]:
    rng = random.Random(f"library-golden/{line}")
    frame = model.frame
    family = [frame.parse(e) for e in _GOLDEN_UNIONS]
    if model != Model.exclusive(frame):
        family += [p for p in map(frame.parse, _GOLDEN_MEETS) if not model.is_empty(p)]
    truthy = [p for p in family if p.bits & frame.atom("A").bits == frame.atom("A").bits]
    sources = []
    for _ in range(count):
        props = [rng.choice(truthy), frame.total_ignorance()]
        props += rng.sample(family, rng.randint(0, 3))
        weights = [rng.uniform(0.05, 1.0) for _ in props]
        total = ordered_sum(weights)
        sources.append(MassFunction(model, [(p, w / total) for p, w in zip(props, weights)]))
    return sources
