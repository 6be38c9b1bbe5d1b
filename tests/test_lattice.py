"""Frames, models, and the proposition lattice."""

import keyword
import random
import sys
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest
from hypothesis import example, given, settings, strategies as st

from evfuse import (
    ExpressionError,
    Frame,
    FusionState,
    MassFunction,
    Model,
    Proposition,
    ValidationError,
    make_model,
)
from evfuse.lattice import MAX_ATOMS

from support import (
    ref_conflict_parties,
    ref_is_up_closed,
    ref_minimal_minterms,
    ref_text,
    text_per_atom,
    union_of_atoms,
)


def minterm_bits(*masks: int) -> int:
    bits = 0
    for m in masks:
        bits |= 1 << m
    return bits


def all_up_closed(frame: Frame) -> list[Proposition]:
    """Every non-empty up-closed minterm family, by brute enumeration
    with the reference check."""
    n = frame.n
    out = []
    for mask in range(1, 1 << ((1 << n) - 1)):
        bits = mask << 1  # skip the unused bit for the empty region
        if ref_is_up_closed(frame, bits):
            out.append(Proposition(frame, bits))
    return out


@st.composite
def random_props(draw, frame: Frame):
    # union of 1..3 intersections of atoms: always a lattice element
    n_terms = draw(st.integers(1, 3))
    p = None
    for _ in range(n_terms):
        mask = draw(st.integers(1, (1 << frame.n) - 1))
        term = None
        for i in range(frame.n):
            if mask >> i & 1:
                atom = frame.atom(i)
                term = atom if term is None else term & atom
        p = term if p is None else p | term
    return p


FRAME4 = Frame(("A", "B", "C", "D"))
FRAME5 = Frame(("A", "B", "C", "D", "E"))


# frame construction ---------------------------------------------------------

def test_frame_basic(frame):
    assert frame.n == 3
    assert frame.full_bits == (1 << 8) - 2  # seven minterm regions


@pytest.mark.parametrize("atoms", [("A",), (), tuple("ABCDEFGHIJKLMNOPQ")])
def test_frame_size_bounds(atoms):
    with pytest.raises(ValidationError):
        Frame(atoms)


@pytest.mark.parametrize("atoms", [
    ("A", "A"), ("A", "2B"), ("A", ""), ("A", "B C"),
    # not a tuple or list: a string and a dict built the frame A, B; None raised TypeError
    "AB", {"A": 1, "B": 2}, None,
])
def test_frame_bad_names(atoms):
    with pytest.raises(ValidationError):
        Frame(atoms)


def test_frame_accepts_underscore_names():
    f = Frame(("alpha", "beta_2"))
    assert f.atom("beta_2").text() == "beta_2"


def test_sixteen_atom_frame_stays_responsive():
    frame = Frame(tuple(f"s{i}" for i in range(16)))
    a, b = frame.atom(0), frame.atom(15)
    assert not (a & b).is_void  # free-lattice overlap region
    assert (a & b).atoms_union() == a | b
    assert [p.text() for p in (a & b).conflict_parties()] == ["s0", "s15"]
    assert frame.parse((a | b).text()) == a | b

    exclusive = Model.exclusive(frame)
    # every region but the 16 singletons
    assert bin(exclusive.constrained).count("1") == (1 << 16) - 1 - 16
    assert exclusive.is_empty(a & b) and not exclusive.is_empty(a | b)

    ring = Model.with_exclusions(frame, [(i, (i + 1) % 16) for i in range(16)])
    # regions free of adjacent ring pairs number L16 = 2207 (Lucas),
    # counting the unused empty region
    assert bin(ring.constrained).count("1") == (1 << 16) - 2207
    assert ring.is_empty(a & b) and ring.is_empty(frame.atom(7) & frame.atom(8))
    assert not ring.is_empty(frame.atom(0) & frame.atom(2))
    p = frame.parse("s0&s2|s2&s5&s9|s14")
    assert p.text() == "s0&s2|s14|s2&s5&s9"
    assert [q.text() for q in p.conflict_parties()] == ["s14|s2", "s0|s14|s5", "s0|s14|s9"]


# atoms and constants ---------------------------------------------------------

def test_atom_minterms(frame):
    # regions inside A: {A}, {A,B}, {A,C}, {A,B,C} -> masks 1, 3, 5, 7
    assert frame.atom("A").bits == minterm_bits(1, 3, 5, 7)
    assert frame.atom(0) == frame.atom("A")


def test_atom_minterms_two_atom_frame():
    f = Frame(("A", "B"))
    assert f.atom("B").bits == minterm_bits(2, 3)


def test_atom_unknown(frame):
    with pytest.raises(ValidationError):
        frame.atom("D")
    with pytest.raises(ValidationError):
        frame.atom(3)


@pytest.mark.parametrize("ref", [True, False, 0.5, 1.0, None, [0], (0,), b"A"])
def test_atom_reference_must_be_name_or_int(frame, ref):
    # isinstance counts a bool as an int, so True would name atom B
    with pytest.raises(ValidationError, match="atom reference") as info:
        frame.atom(ref)
    assert repr(ref) in str(info.value)
    with pytest.raises(ValidationError, match="atom reference"):
        Model.with_exclusions(frame, [(ref, "C")])


def test_total_ignorance(frame, exclusive, free):
    top = frame.total_ignorance()
    assert top.bits == frame.full_bits
    a, b, c = (frame.atom(i) for i in range(3))
    assert top == (a | b) | c
    assert not exclusive.is_empty(top)
    assert not free.is_empty(top)


# models ----------------------------------------------------------------------

def test_model_free(frame):
    assert make_model(frame, "free").constrained == 0


def test_model_exclusive(frame):
    model = make_model(frame, "exclusive")
    # every region with two or more atoms: masks 3, 5, 6, 7
    assert model.constrained == minterm_bits(3, 5, 6, 7)


def test_model_pairs(frame):
    model = make_model(frame, [("A", "B")])
    # regions containing both A and B: masks 3, 7
    assert model.constrained == minterm_bits(3, 7)


def test_models_compare_by_frame_and_constraints():
    # however a model was built, the same frame and constraints are the same model
    two, three = Frame(("A", "B")), Frame(("A", "B", "C"))
    assert Model.exclusive(two) == Model.with_exclusions(two, [("A", "B")])
    assert hash(Model.exclusive(two)) == hash(Model.with_exclusions(two, [("B", "A")]))
    assert Model.free(two) == Model.with_exclusions(two, []) == make_model(two, [])
    assert Model.exclusive(three) == make_model(three, [("A", "B"), ("B", "C"), ("A", "C")])
    assert Model.exclusive(three) != Model.with_exclusions(three, [("A", "B")])


def test_model_pair_errors(frame):
    with pytest.raises(ValidationError):
        make_model(frame, [("A", "D")])
    with pytest.raises(ValidationError):
        make_model(frame, [("A", "A")])


@pytest.mark.parametrize("pairs", [["AB"], [("A",)], [("A", "B", "C")], [None], [{"A", "B"}],
                                   [("A", "B"), "BC"]])
def test_model_rejects_malformed_pair(frame, pairs):
    # a str is a sequence: "AB" would unpack as the pair (A, B)
    with pytest.raises(ValidationError, match="exclusive pair must be two atom references"):
        Model.with_exclusions(frame, pairs)
    with pytest.raises(ValidationError, match="exclusive pair"):
        make_model(frame, pairs)


@pytest.mark.parametrize("spec", [None, 5, 0.5, True, "open"])
def test_make_model_rejects_malformed_spec(frame, spec):
    with pytest.raises(ValidationError, match="unknown model spec"):
        make_model(frame, spec)


@pytest.mark.parametrize("mask", [2.0, 8.0, True, False, "8", None, [8], 8 + 0j],
                         ids=["2.0", "8.0", "True", "False", "str", "None", "list", "complex"])
def test_masks_must_be_ints(frame, mask):
    # 2.0, True and 8.0 were accepted and failed later with a TypeError from
    # &; a str failed at once with a TypeError from the range comparison
    with pytest.raises(ValidationError, match="minterm mask must be an int") as info:
        Proposition(frame, mask)
    assert repr(mask) in str(info.value)
    with pytest.raises(ValidationError, match="constraint mask must be an int"):
        Model(frame, mask)


@pytest.mark.parametrize("mask", [1, 3, 5])
def test_masks_holding_region_zero_are_rejected(mask):
    # region 0 lies inside no atom; Proposition(frame, 1) used to build and
    # render as "", a DNF of one empty term
    frame = Frame(("A", "B"))
    with pytest.raises(ValidationError, match="minterm mask out of range for this frame"):
        Proposition(frame, mask)
    with pytest.raises(ValidationError, match="constraint mask out of range for this frame"):
        Model(frame, mask)


def test_model_rejects_a_constraint_not_closed_upward(frame):
    # the region of A and B alone, without A&B&C above it
    region = frame.atom("A").bits & frame.atom("B").bits & ~frame.atom("C").bits
    with pytest.raises(ValidationError, match="^constraint mask must be closed upward$"):
        Model(frame, region)


def test_model_rejects_constrained_singletons(frame):
    mask = frame.full_bits  # would make even the atoms empty
    with pytest.raises(ValidationError):
        Model(frame, mask)


# lattice operations ----------------------------------------------------------

def test_intersect_absorption(frame):
    a, c = frame.atom("A"), frame.atom("C")
    assert a & (a | c) == a


def test_intersect_mixed(frame):
    b = frame.atom("B")
    auc = frame.atom("A") | frame.atom("C")
    # regions of B&(A|C): {A,B}, {B,C}, {A,B,C} -> masks 3, 6, 7
    assert (auc & b).bits == minterm_bits(3, 6, 7)
    anb = frame.atom("A") & b
    assert (anb & auc) == anb


def test_unite_trivia(frame):
    p = frame.parse("A&B")
    assert (p | p) == p
    assert (p | frame.total_ignorance()) == frame.total_ignorance()


def test_frame_mismatch_rejected(frame):
    other = Frame(("A", "B"))
    with pytest.raises(ValidationError):
        frame.atom("A") & other.atom("A")


@given(data=st.data())
def test_hash_contract(data):
    names = ("A", "B", "C", "D", "E")[:data.draw(st.integers(2, 5))]
    frame, twin = Frame(names), Frame(tuple(names))  # equal, built apart
    other = Frame(tuple(name.lower() for name in names))
    p = data.draw(random_props(frame))
    q = Proposition(twin, p.bits)
    assert q == p and hash(q) == hash(p)
    by_prop = {p: 1.0}
    assert by_prop[q] == 1.0 and len({p: 0, q: 1}) == 1
    # the same bits on another frame are another proposition
    r = Proposition(other, p.bits)
    assert r != p and r not in by_prop and len({p: 0, r: 1}) == 2
    assert p & q == p
    with pytest.raises(ValidationError):
        p & r
    free = Model.free(frame)
    assert MassFunction(free, [(p, 0.5), (q, 0.5)]).mass(p) == 1.0
    with pytest.raises(ValidationError):
        MassFunction(free, {r: 1.0})
    state = FusionState.initial(free).fuse(MassFunction(free, {p: 1.0}))
    assert state.fuse(MassFunction(Model.free(twin), {q: 1.0})).accumulator.terms == {p: 1.0}
    for model in (Model.free(other), Model.exclusive(frame)):
        top = model.frame.total_ignorance()
        with pytest.raises(ValidationError):
            state.fuse(MassFunction(model, {top: 1.0}))


def test_is_empty(frame, exclusive, free):
    anb = frame.parse("A&B")
    assert exclusive.is_empty(anb)
    assert not free.is_empty(anb)
    assert exclusive.is_empty(frame.empty())
    assert free.is_empty(frame.empty())


def test_is_empty_under_pair_model(frame):
    model = make_model(frame, [("A", "B")])
    assert model.is_empty(frame.parse("A&B"))
    assert not model.is_empty(frame.parse("A&C"))


# dnf, parties, unions ---------------------------------------------------------

def test_dnf_terms(frame):
    # text() joins the sorted terms by "|" and each term's atoms by "&"
    def terms(p):
        return [tuple(term.split("&")) for term in p.text().split("|")]

    assert terms(frame.parse("A&B")) == [("A", "B")]
    assert terms(frame.parse("B&(A|C)")) == [("A", "B"), ("B", "C")]
    assert terms(frame.parse("A|C")) == [("A",), ("C",)]
    # the empty proposition has no terms: its text names no atom
    assert frame.empty().text() == "∅"


def test_conflict_parties(frame):
    assert [p.text() for p in frame.parse("A&B").conflict_parties()] == ["A", "B"]
    assert [p.text() for p in frame.parse("B&(A|C)").conflict_parties()] == ["B", "A|C"]


def test_conflict_parties_three_way():
    f = Frame(("A", "C", "D", "E"))
    parties = f.parse("A&C&D").conflict_parties()
    assert [p.text() for p in parties] == ["A", "C", "D"]


def test_atoms_union(frame):
    assert frame.parse("A&B").atoms_union() == frame.parse("A|B")
    assert frame.parse("B&(A|C)").atoms_union() == frame.total_ignorance()
    assert frame.parse("A").atoms_union() == frame.atom("A")
    with pytest.raises(ValidationError):
        frame.empty().atoms_union()


def test_parties_intersection_rebuilds(frame):
    for expr in ("A&B", "B&(A|C)", "A|B&C", "A&B&C", "A|B|C"):
        p = frame.parse(expr)
        rebuilt = None
        for party in p.conflict_parties():
            rebuilt = party if rebuilt is None else rebuilt & party
        assert rebuilt == p


def test_dnf_rebuilds(frame):
    for expr in ("A&B", "B&(A|C)", "A|C", "A&(B|C)|B&C"):
        p = frame.parse(expr)
        rebuilt = None
        for term in p.text().split("|"):
            factor = None
            for name in term.split("&"):
                atom = frame.atom(name)
                factor = atom if factor is None else factor & atom
            rebuilt = factor if rebuilt is None else rebuilt | factor
        assert rebuilt == p


@pytest.mark.parametrize("n, expected_pairs", [(2, 2), (3, 12), (4, 50)])
def test_disjoint_pair_products_exhaustive(n, expected_pairs):
    # for every pair of disjoint unions of atoms X, Y: the atoms union of
    # X&Y is X|Y and the parties are exactly {X, Y}
    frame = Frame(("A", "B", "C", "D")[:n])
    atoms = [frame.atom(i) for i in range(frame.n)]

    def union_of(mask):
        p = frame.empty()
        for i in range(frame.n):
            if mask >> i & 1:
                p = p | atoms[i]
        return p

    checked = 0
    for xm in range(1, 1 << frame.n):
        for ym in range(1, 1 << frame.n):
            if xm & ym:
                continue
            x, y = union_of(xm), union_of(ym)
            product = x & y
            assert product.atoms_union() == x | y
            assert set(product.conflict_parties()) == {x, y}
            checked += 1
    assert checked == expected_pairs


@pytest.mark.parametrize("n, masks, elements", [(3, 127, 18), (4, 32767, 166)])
def test_kernel_matches_reference_exhaustive(n, masks, elements):
    frame = Frame(("A", "B", "C", "D")[:n])
    free = Model.free(frame)
    up_closed = []
    for mask in range(1, 1 << ((1 << n) - 1)):
        bits = mask << 1
        p, closed = Proposition(frame, bits), ref_is_up_closed(frame, bits)
        assert p.is_up_closed() == closed, bits
        assert p.minimal_minterms() == ref_minimal_minterms(frame, bits), bits
        if closed:
            up_closed.append(p)
    assert mask == masks and len(up_closed) == elements
    for p in up_closed:
        want = [union_of_atoms(free, m) for m in ref_conflict_parties(frame, p.bits)]
        support = 0
        for m in ref_minimal_minterms(frame, p.bits):
            support |= m
        for _ in range(2):  # the second call is served from the frame's memo
            assert list(p.conflict_parties()) == want, p
            assert p.atoms_union() == union_of_atoms(free, support), p


# Atom names that are prefixes of one another, so that term order turns
# on '&' sorting below every character a name may hold.
PREFIX_NAMES = ("A", "A0", "A_", "AB", "a", "Z9", "A00", "A0_", "AB_", "Aa",
                "B", "Z", "Z90", "b", "ZZ", "A_0")


# the peeling kernel ---------------------------------------------------------------
# Frame._text reads the minimal regions of an up-closed mask by clearing the
# up-set of its lowest region until nothing is left; conflict parties and
# atom unions are read without it.  The exhaustive tests above stop at 4 atoms.

@st.composite
def dnf_masks(draw):
    """A frame of 2-16 atoms and the up-closed mask of a random DNF string."""
    n = draw(st.integers(2, MAX_ATOMS))
    frame = Frame(draw(st.permutations(PREFIX_NAMES))[:n])
    terms = draw(st.lists(st.lists(st.sampled_from(frame.atoms), min_size=1, max_size=4,
                                   unique=True), min_size=1, max_size=5))
    return frame, frame.parse("|".join("&".join(term) for term in terms)).bits


def _conflicting(n, text):
    # a frame of n atoms and a mask every term of which meets two atoms or more,
    # so it is empty under the exclusive model
    frame = Frame(PREFIX_NAMES[:n])
    return frame, frame.parse(text).bits


@settings(max_examples=60, deadline=None)
@given(dnf_masks())
@example(_conflicting(8, "A&A0|A_&AB&a|A0&Z9&A00|AB&A0_"))
@example(_conflicting(16, "A&A_0|A&ZZ&b|Z90&A_0|A0&B&Z"))
def test_text_matches_reference_on_wide_frames(case):
    frame, bits = case
    # conflict parties are peeled from the top through atom unions, so on a
    # fresh frame they leave the rendering memo empty
    fresh = Frame(frame.atoms)
    parties = fresh._route(bits)[0]
    assert not fresh._regions
    assert parties == tuple(union_of_atoms(Model.free(fresh), m).bits
                            for m in ref_conflict_parties(fresh, bits))
    minimal = ref_minimal_minterms(frame, bits)
    p = Proposition(frame, bits)
    assert p.text() == ref_text(frame, bits)
    free = Model.free(frame)
    want = [union_of_atoms(free, m) for m in ref_conflict_parties(frame, bits)]
    assert list(p.conflict_parties()) == want
    assert p.atoms_union() == union_of_atoms(free, reduce(or_, minimal))


def _regions_named(frame, text):
    # the region each term of a rendering names; region 0's term is ""
    return [sum(1 << frame.atoms.index(name) for name in term.split("&") if name)
            for term in text.split("|")]


@pytest.mark.parametrize("n", [3, MAX_ATOMS])
def test_text_ends_on_masks_holding_region_zero(n):
    # Region 0 lies inside no atom, so no atom mask holds it.  Its memo
    # entry must clear every region, region 0 included, or a mask holding
    # region 0 never empties.
    frame = Frame(PREFIX_NAMES[:n])
    everything = frame.full_bits | 1
    frame._text(1)  # fills region 0's memo entry
    assert not everything & frame._regions[0][0]
    for bits in (1, everything, 1 | frame.atom(0).bits):
        assert frame._text(bits) == ""  # region 0's term, alone


def test_text_ends_on_every_mask_of_a_small_frame():
    # up-closed or not, region 0 or not: each step clears the region it found,
    # and the text is the per-atom peel's, string for string
    frame = Frame(("A", "B", "C"))
    frame._text(1)  # fills region 0's memo entry
    assert not frame._regions[0][0] & 1  # else the masks holding region 0 never empty
    assert frame._text(0) == "∅"
    for bits in range(1, 1 << (1 << frame.n)):
        text = frame._text(bits)
        assert text == text_per_atom(frame, bits), bits
        regions = _regions_named(frame, text)
        assert len(set(regions)) == len(regions) and all(bits >> r & 1 for r in regions)
        if ref_is_up_closed(frame, bits):
            assert text == ref_text(frame, bits), bits
    # every region now has its entry: the frame's regions not above it, and its term
    assert len(frame._regions) == 1 << frame.n
    for region, entry in frame._regions.items():
        atoms = [i for i in range(frame.n) if region >> i & 1]
        up = reduce(and_, (frame._atom_bits[i] for i in atoms), frame.full_bits | 1)
        assert entry == (frame.full_bits & ~up, "&".join(frame.atoms[i] for i in atoms))


@pytest.mark.parametrize("n", [8, 12, MAX_ATOMS])
def test_text_matches_the_per_atom_peel_on_wide_frames(n):
    # seeded up-closed masks of 1-8 random terms, on a fresh frame and on one
    # whose memo the earlier masks filled
    rng = random.Random(f"peel/{n}")
    frame = Frame(PREFIX_NAMES[:n])
    for _ in range(300):
        bits = 0
        for _ in range(rng.randint(1, 8)):
            term = rng.sample(range(n), rng.randint(1, n))
            bits |= reduce(and_, (frame._atom_bits[i] for i in term))
        want = text_per_atom(frame, bits)
        assert Frame(frame.atoms)._text(bits) == frame._text(bits) == want


@pytest.mark.parametrize("n", range(2, MAX_ATOMS + 1))
def test_atom_masks_hold_exactly_their_regions(n):
    # bit r of atom i's mask is set exactly when region r lies inside atom i
    frame = Frame(PREFIX_NAMES[:n])
    for i in range(n):
        want = int("".join(str(r >> i & 1) for r in reversed(range(1 << n))), 2)
        assert frame._atom_bits[i] == want, i


def test_void_decomposition_raises_on_every_call(frame):
    void = frame.empty()
    for _ in range(2):
        with pytest.raises(ValidationError, match="no conflict parties"):
            void.conflict_parties()
        with pytest.raises(ValidationError, match="mentions no atoms"):
            void.atoms_union()


def test_decomposition_is_per_frame():
    # Each element of the 3-atom lattice meets the same bits on another
    # frame first, so a decomposition cached by bits alone would hand the
    # other frame's parties to it.
    frame = Frame(("A", "B", "C"))
    renamed = Frame(("X", "Y", "Z"))
    wider = Frame(("A", "B", "C", "D"))  # in range there, though not up-closed
    for p in all_up_closed(frame):
        twin, wide = Proposition(renamed, p.bits), Proposition(wider, p.bits)
        for q in (twin, wide):
            assert all(g.frame == q.frame for g in q.conflict_parties()), q
            assert q.atoms_union().frame == q.frame
        for q in (twin, p):
            free = Model.free(q.frame)
            want = [union_of_atoms(free, m) for m in ref_conflict_parties(q.frame, q.bits)]
            assert list(q.conflict_parties()) == want, q
            support = 0
            for m in ref_minimal_minterms(q.frame, q.bits):
                support |= m
            assert q.atoms_union() == union_of_atoms(free, support), q


@pytest.mark.parametrize("n, pairs", [(3, 18), (4, 428)])
def test_union_pair_parties_are_the_pair(n, pairs):
    # The sdli transfer splits a conflicting product over its conflict
    # parties, the closed formula between the two focal sets it came from.
    # For unions of atoms these must be the same two sets under every
    # exclusion model, whichever unordered pair empties its product.
    frame = Frame(("A", "B", "C", "D")[:n])
    unions = [union_of_atoms(Model.free(frame), mask) for mask in range(1, 1 << n)]
    atom_pairs = list(combinations(frame.atoms, 2))
    seen = 0
    for chosen in range(1 << len(atom_pairs)):
        model = Model.with_exclusions(
            frame, [pair for i, pair in enumerate(atom_pairs) if chosen >> i & 1]
        )
        for x, y in combinations(unions, 2):
            product = x & y
            if model.is_empty(product):
                seen += 1
                assert {g.bits for g in product.conflict_parties()} == {x.bits, y.bits}
    assert seen == pairs


# parsing and formatting --------------------------------------------------------

def test_parse_examples(frame):
    assert frame.parse("A|C") == frame.atom("A") | frame.atom("C")
    assert frame.parse("B&(A|C)") == frame.atom("B") & (frame.atom("A") | frame.atom("C"))
    assert frame.parse(" A &\tB ") == frame.parse("A&B")


def test_parse_precedence(frame):
    assert frame.parse("A|B&C") == frame.atom("A") | (frame.atom("B") & frame.atom("C"))


def test_parse_syntax_error_positions(frame):
    with pytest.raises(ExpressionError) as err:
        frame.parse("A&")
    assert err.value.position == 2
    with pytest.raises(ExpressionError) as err:
        frame.parse("(A|B")
    assert err.value.position == 4
    with pytest.raises(ExpressionError) as err:
        frame.parse("A B")
    assert err.value.position == 2
    with pytest.raises(ExpressionError) as err:
        frame.parse("A+B")
    assert err.value.position == 1
    with pytest.raises(ExpressionError):
        frame.parse("")


def test_parse_unknown_atom(frame):
    with pytest.raises(ExpressionError) as err:
        frame.parse("A|Z")
    assert err.value.position == 2
    assert "Z" in str(err.value)


def test_format_examples(frame):
    assert frame.parse("B&(A|C)").text() == "A&B|B&C"
    assert frame.parse("C|A").text() == "A|C"
    assert frame.empty().text() == "∅"
    assert str(frame.total_ignorance()) == "A|B|C"


def test_format_parse_round_trip_all_n3(frame):
    props = all_up_closed(frame)
    assert len(props) == 18
    for p in props:
        assert frame.parse(p.text()) == p


@pytest.mark.parametrize("n", [3, 4])
def test_text_matches_reference_exhaustive(n):
    # Each element is rendered on two frames of the same size with
    # different names, in turn, so a text memo shared between frames
    # would hand one frame's names to the other.
    plain = Frame(("A", "B", "C", "D")[:n])
    prefixed = Frame(("A_", "A", "AB", "A0")[:n])
    for p in all_up_closed(plain):
        for frame in (plain, prefixed, plain):
            q = Proposition(frame, p.bits)
            assert q.text() == ref_text(frame, p.bits), (frame.atoms, p.bits)
    assert Proposition(prefixed, 0).text() == ref_text(prefixed, 0) == "∅"


def test_text_matches_reference_wide():
    rng = random.Random(20260801)
    for n in range(8, MAX_ATOMS + 1):
        frame = Frame(tuple(rng.sample(PREFIX_NAMES, n)))
        for _ in range(12 if n <= 12 else 2 if n <= 14 else 1):
            p = None
            for _ in range(rng.randint(1, 5)):
                term = None
                for i in rng.sample(range(n), rng.randint(1, 3)):
                    term = frame.atom(i) if term is None else term & frame.atom(i)
                p = term if p is None else p | term
            for _ in range(2):  # the second call reads every term from the memo
                assert p.text() == ref_text(frame, p.bits), (frame.atoms, p.bits)


# Atom names Python's own parser reads as plain identifiers, so that eval
# of an expression over the frame's atoms is a reference for Frame.parse:
# Python also binds '&' tighter than '|'.
IDENTIFIERS = st.one_of(
    st.sampled_from(PREFIX_NAMES),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
        lambda name: not keyword.iskeyword(name)),
)


@st.composite
def frames_and_expressions(draw):
    atoms = draw(st.lists(IDENTIFIERS, min_size=2, max_size=6, unique=True))
    pad = st.sampled_from(["", "", " ", "\t", " \t "])

    def expression(depth):
        kind = draw(st.integers(0, 3)) if depth < 5 else 0
        if kind == 0:
            text = draw(st.sampled_from(atoms))
        elif kind == 1:  # a redundant pair of parentheses
            text = "(" + expression(depth + 1) + ")"
        else:
            op = "&" if kind == 2 else "|"
            text = expression(depth + 1) + draw(pad) + op + draw(pad) + expression(depth + 1)
        return draw(pad) + text + draw(pad)

    return Frame(tuple(atoms)), expression(0)


@given(frames_and_expressions())
def test_parse_matches_python_eval(case):
    frame, text = case
    names = {atom: frame.atom(atom) for atom in frame.atoms}
    assert frame.parse(text) == eval(text, {"__builtins__": {}}, names)


@pytest.mark.parametrize("text, message, position", [
    ("A&", "expected atom or '(', found end of input", 2),
    ("(A|B", "expected ')'", 4),
    ("A B", "expected '&', '|' or end of input, found 'B'", 2),
    ("A)", "expected '&', '|' or end of input, found ')'", 1),
    (")", "expected atom or '(', found ')'", 0),
    ("A+B", "unexpected character '+'", 1),
    ("A|Z", "unknown atom 'Z'", 2),
    ("(" * 101 + "A" + ")" * 101, "parentheses nested deeper than 100", 100),
    # a bad character is reported before any syntax error found earlier
    ("A&&B+", "unexpected character '+'", 4),
    ("(A|B$", "unexpected character '$'", 4),
    ("Z+", "unexpected character '+'", 1),
    ("A)(€", "unexpected character '€'", 3),
], ids=["dangling-and", "unclosed", "juxtaposed", "stray-close", "lone-close",
        "bad-character", "unknown-atom", "too-deep", "bad-character-after-double-and",
        "bad-character-in-open-group", "bad-character-after-unknown-atom",
        "bad-character-after-stray-close"])
def test_parse_error_table(frame, text, message, position):
    with pytest.raises(ExpressionError) as err:
        frame.parse(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} at position {position}"


def test_parse_uses_no_recursion_per_parenthesis(frame):
    depth, caller = 0, sys._getframe()
    while caller is not None:
        depth, caller = depth + 1, caller.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        p = frame.parse("(" * 100 + "A" + ")" * 100)
    finally:
        sys.setrecursionlimit(limit)
    assert p == frame.atom("A")


# algebraic laws ---------------------------------------------------------------

def test_lattice_laws_exhaustive_n3(frame):
    props = all_up_closed(frame)
    for p in props:
        assert (p & p) == p and (p | p) == p
        for q in props:
            assert (p & q) == (q & p)
            assert (p | q) == (q | p)
            assert (p & (p | q)) == p
            for r in props:
                assert ((p & q) & r) == (p & (q & r))
                assert ((p | q) | r) == (p | (q | r))
                assert (p & (q | r)) == ((p & q) | (p & r))


def test_closure_exhaustive_n3(frame):
    props = all_up_closed(frame)
    family = {p.bits for p in props}
    for p in props:
        for q in props:
            assert (p & q).is_up_closed()
            assert (p | q).is_up_closed()
            assert (p | q).bits in family
            # meets may leave the non-empty family only at the bottom
            assert (p & q).bits in family or (p & q).is_void
    # exclusivity of atoms never makes the AND of overlapping unions void
    assert not (frame.parse("A|B") & frame.parse("B|C")).is_void


@pytest.mark.parametrize("frame_big", [FRAME4, FRAME5])
@given(data=st.data())
def test_closure_randomized_n45(frame_big, data):
    p = data.draw(random_props(frame_big))
    q = data.draw(random_props(frame_big))
    assert p.is_up_closed() and q.is_up_closed()
    assert (p & q).is_up_closed()
    assert (p | q).is_up_closed()


@pytest.mark.parametrize("frame_big", [FRAME4, FRAME5])
@given(data=st.data())
def test_round_trip_randomized(frame_big, data):
    p = data.draw(random_props(frame_big))
    assert frame_big.parse(p.text()) == p


@given(data=st.data())
def test_parties_rebuild_randomized(data):
    p = data.draw(random_props(FRAME4))
    rebuilt = None
    for party in p.conflict_parties():
        rebuilt = party if rebuilt is None else rebuilt & party
    assert rebuilt == p
