"""Mass assignments, column sums, belief and plausibility."""

import gc
import random
import weakref
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from evfuse import (
    ColumnSums,
    Frame,
    FusionState,
    MassFunction,
    Model,
    Proposition,
    Rule,
    TotalConflictError,
    ValidationError,
    column_sums,
    conjunctive,
    deviation,
    vbf,
)
from evfuse.mass import _validated, ordered_sum as package_sum

from support import (
    COLUMNS_12,
    COLUMNS_123,
    GOLDEN_ATOMS,
    GOLDEN_LINES,
    UNION_12,
    as_text_dict,
    draw_focal,
    draw_model,
    draw_source,
    golden_model,
    golden_sources,
    mass_from_rows,
    ordered_sum,
    random_mass,
    random_model,
    ref_column_sums,
)


# construction ----------------------------------------------------------------

def test_valid_source(m1, frame):
    assert m1.mass(frame.parse("B")) == 0.5
    assert sum(v for _, v in m1.items()) == pytest.approx(1.0, abs=1e-12)
    assert m1.is_input_valid()


def test_duplicates_merge(exclusive, frame):
    a = frame.parse("A")
    m = MassFunction(exclusive, [(a, 0.25), (a, 0.35), (frame.parse("B"), 0.4)])
    assert m.mass(a) == pytest.approx(0.6, abs=1e-12)
    assert len(m) == 2


def test_zero_entries_dropped(exclusive, frame):
    m = MassFunction(exclusive, {frame.parse("A"): 1.0, frame.parse("B"): 0.0})
    assert m.focal() == (frame.parse("A"),)


def test_sum_violation(exclusive, frame):
    with pytest.raises(ValidationError, match="sum"):
        MassFunction(exclusive, {frame.parse("A"): 0.5, frame.parse("B"): 0.4})


def test_negative_mass(exclusive, frame):
    with pytest.raises(ValidationError, match="negative"):
        MassFunction(exclusive, {frame.parse("A"): 1.2, frame.parse("B"): -0.2})


def test_empty_focal_rejected_for_sources(exclusive, frame):
    with pytest.raises(ValidationError, match="empty"):
        MassFunction(exclusive, {frame.parse("A&B"): 1.0})


def test_conflict_allowed_for_outputs(exclusive, frame):
    m = MassFunction(
        exclusive,
        {frame.parse("A&B"): 0.4, frame.parse("A"): 0.6},
        allow_conflict=True,
    )
    assert m.conflict_mass() == pytest.approx(0.4, abs=1e-12)
    assert not m.is_input_valid()
    empty = frame.empty()
    m2 = MassFunction(exclusive, {empty: 0.3, frame.parse("A"): 0.7}, allow_conflict=True)
    assert m2.mass(empty) == pytest.approx(0.3, abs=1e-12)


def test_totals_add_left_to_right_from_int_zero(exclusive, frame):
    # Python 3.12's sum() compensates and gives 1.0 here, which changed
    # last digits of the output between interpreters
    assert package_sum([0.1] * 10) == 0.9999999999999999
    assert package_sum(iter([0.5, 0.25])) == 0.75
    empty = package_sum([])
    assert empty == 0 and type(empty) is int
    # so a state without conflict prints "conflict": 0, not 0.0
    assert type(MassFunction(exclusive, {frame.parse("A"): 1.0}).conflict_mass()) is int


def test_frame_mismatch(exclusive):
    from evfuse import Frame

    other = Frame(("A", "B"))
    with pytest.raises(ValidationError):
        MassFunction(exclusive, {other.atom("A"): 1.0})


# the engine's results go through the same validator as sources; a value its
# whole-dict check refuses takes the per-value path and the same error
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.25],
                         ids=["nan", "inf", "-inf", "negative"])
def test_engine_results_fail_as_sources_do(exclusive, frame, value):
    a, b = frame.parse("A"), frame.parse("B")
    with pytest.raises(ValidationError) as source:
        MassFunction(exclusive, {a: 0.5, b: value})
    with pytest.raises(ValidationError) as result:
        MassFunction._of_masks(exclusive, {a.bits: 0.5, b.bits: value})
    assert str(result.value) == str(source.value)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_engine_results_drop_zeros(exclusive, frame, zero):
    a, b = frame.parse("A"), frame.parse("B")
    m = MassFunction._of_masks(exclusive, {b.bits: zero, a.bits: 1.0})
    assert m._masses == {a.bits: 1.0} and m.focal() == (a,)


def test_an_empty_engine_result_sums_to_zero(exclusive):
    with pytest.raises(ValidationError, match=r"^masses sum to 0, expected 1"):
        MassFunction._of_masks(exclusive, {})


def test_revalidation_idempotent(m1):
    again = MassFunction(m1.model, m1.terms)
    assert again == m1


def test_free_model_admits_intersections(free, frame):
    m = MassFunction(free, {frame.parse("A&B"): 0.5, frame.parse("C"): 0.5})
    assert m.is_input_valid()


# vacuous assignment ------------------------------------------------------------

def test_vbf(exclusive, frame):
    m = vbf(exclusive)
    assert as_text_dict(m) == {"A|B|C": 1.0}
    assert m.is_input_valid()


# column sums -------------------------------------------------------------------

def test_column_sums_two_sources(m1, m2, frame):
    cols = column_sums([m1, m2])
    assert cols.source_count == 2
    got = {p.text(): v for p, v in cols.sums.items()}
    for key, want in COLUMNS_12.items():
        assert got[key] == pytest.approx(want, abs=1e-12)


def test_column_sums_three_sources(m1, m2, m3):
    cols = column_sums([m1, m2, m3])
    got = {p.text(): v for p, v in cols.sums.items()}
    for key, want in COLUMNS_123.items():
        assert got[key] == pytest.approx(want, abs=1e-12)
    assert sum(cols.sums.values()) == pytest.approx(3.0, abs=1e-9)


def test_column_sums_vbf(exclusive):
    cols = column_sums([vbf(exclusive)])
    assert {p.text(): v for p, v in cols.sums.items()} == {"A|B|C": 1.0}


def test_column_sums_single(m1):
    cols = column_sums([m1])
    assert cols.sums == m1.terms


def test_column_sums_model_mismatch(m1, free, frame):
    other = MassFunction(free, {frame.parse("A"): 1.0})
    with pytest.raises(ValidationError):
        column_sums([m1, other])


def test_column_sums_need_a_source():
    with pytest.raises(ValidationError, match="^need at least one mass function$"):
        column_sums([])


def test_column_sums_permutation_and_concat():
    rng = random.Random(2024)
    for _ in range(25):
        model = random_model(rng)
        sources = [random_mass(rng, model) for _ in range(rng.randint(1, 4))]
        base = column_sums(sources)
        shuffled = sources[:]
        rng.shuffle(shuffled)
        other = column_sums(shuffled)
        assert base.source_count == other.source_count
        assert set(base.sums) == set(other.sums)
        for p, v in base.sums.items():
            assert other.sums[p] == pytest.approx(v, abs=1e-12)
        extra = random_mass(rng, model)
        combined = column_sums(sources + [extra])
        folded = base.add(extra)
        assert combined.source_count == folded.source_count
        for p, v in combined.sums.items():
            assert folded.sums[p] == pytest.approx(v, abs=1e-12)



@pytest.mark.parametrize("seed", range(4))
def test_column_sums_match_reference(seed):
    # the same keys in the same (mask) order and bit-equal sums as a
    # copy-and-sort after every source, whether a source brings new keys
    # or only repeats old ones
    rng = random.Random(f"columns/{seed}")
    model = random_model(rng, n=4)
    sources = [random_mass(rng, model) for _ in range(10)]
    sources += sources[:4]
    sums = ColumnSums.empty(model)
    grew = repeated = 0
    for k, m in enumerate(sources, start=1):
        new = any(p not in sums.sums for p, _ in m.items())
        grew, repeated = grew + new, repeated + (not new)
        previous, before = sums, list(sums.sums.items())
        sums = sums.add(m)
        assert list(sums.sums.items()) == list(ref_column_sums(sources[:k]).items())
        assert list(previous.sums.items()) == before  # the old sums stay as they were
    assert grew and repeated
    assert list(column_sums(sources).sums.items()) == list(sums.sums.items())


@pytest.fixture
def exclusive_ab():
    return Model.exclusive(Frame(("A", "B")))


def test_column_sums_reject_another_frame(exclusive_ab):
    # taken by mask, X and Y would be read as A and B by transfer_sdli
    other = Frame(("X", "Y"))
    with pytest.raises(ValidationError, match="different frame"):
        ColumnSums(exclusive_ab, {other.atom("X"): 0.4, other.atom("Y"): 0.6}, 1)


def test_column_sums_reject_a_wider_frame(exclusive_ab):
    # A&B&C's mask is out of range for (A, B); it used to fail only in repr
    wide = Frame(("A", "B", "C")).parse("A&B&C")
    with pytest.raises(ValidationError, match="different frame"):
        ColumnSums(exclusive_ab, {wide: 1.0}, 1)


def test_column_sums_reject_a_string_key(exclusive_ab):
    with pytest.raises(ValidationError, match="must be a Proposition"):
        ColumnSums(exclusive_ab, {"A": 1.0}, 1)


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_column_sums_reject_a_negative_or_non_finite_total(exclusive_ab, value):
    # -1.0 on A with 2.0 on B used to surface only at snapshot time, as
    # "negative mass -0.25 on A" from an sdli snapshot
    a, b = exclusive_ab.frame.atom("A"), exclusive_ab.frame.atom("B")
    with pytest.raises(ValidationError, match=r"^(negative|non-finite) mass \S+ on A$"):
        ColumnSums(exclusive_ab, {a: value, b: 2.0}, 2)


@pytest.mark.parametrize("value", [None, [1], 10**400, "half"],
                         ids=["None", "list", "10**400", "half"])
def test_a_value_that_is_not_a_number_is_a_validation_error(exclusive_ab, value):
    # float() raised TypeError on None and [1], OverflowError on 10**400
    # and ValueError on "half"; ColumnSums raised TypeError on each
    a, b = exclusive_ab.frame.atom("A"), exclusive_ab.frame.atom("B")
    with pytest.raises(ValidationError, match="^mass on A is not a number: "):
        MassFunction(exclusive_ab, {a: value, b: 0.5})
    with pytest.raises(ValidationError, match="^mass on A is not a number: "):
        ColumnSums(exclusive_ab, {a: value, b: 0.5}, 1)


@pytest.mark.parametrize("pairs, want", [
    ([("A", 0.3), ("A", 0.4)], {"A": 0.7}),  # a repeated key kept only its last total
    ([("A", True)], {"A": 1.0}),  # True was stored as is
    ([("A", "0.5")], {"A": 0.5}),  # a numeral string raised TypeError
    ([("A", 0.0), ("B", 1.5)], {"B": 1.5}),  # a zero total was kept
])
def test_column_sums_take_values_as_mass_functions_do(exclusive_ab, pairs, want):
    frame = exclusive_ab.frame
    cols = ColumnSums(exclusive_ab, [(frame.parse(e), v) for e, v in pairs], 2)
    got = {p.text(): v for p, v in cols.sums.items()}
    assert got == want and all(type(v) is float for v in got.values())


@pytest.mark.parametrize("count", [-3, 1.0, True, "2"])
def test_column_sums_reject_a_bad_source_count(exclusive_ab, count):
    # -3 used to be stored and reported as the state's source_count
    with pytest.raises(ValidationError, match="source_count must be an int >= 0"):
        ColumnSums(exclusive_ab, {}, count)


# belief and plausibility ---------------------------------------------------------

def test_belief_self_inclusion(exclusive, frame):
    m = MassFunction(exclusive, {frame.parse("A|C"): 1.0})
    assert m.belief(frame.parse("A|C")) == 1.0


def test_plausibility_of_vacuous(exclusive, frame):
    m = vbf(exclusive)
    for expr in ("A", "B|C", "A|B|C"):
        assert m.plausibility(frame.parse(expr)) == 1.0


def test_belief_plausibility_on_union_transfer_output(exclusive, frame):
    m = mass_from_rows(exclusive, UNION_12)
    # frozen by hand enumeration over the five focal elements
    assert m.belief(frame.parse("A")) == pytest.approx(0.38, abs=1e-9)
    assert m.plausibility(frame.parse("A")) == pytest.approx(0.90, abs=1e-9)


def test_belief_skips_model_empty_focals(exclusive, frame):
    m = MassFunction(
        exclusive,
        {frame.parse("A&B"): 0.5, frame.parse("A"): 0.5},
        allow_conflict=True,
    )
    # the conflicting focal supports nothing, and keeps Bel <= Pl
    assert m.belief(frame.parse("A")) == pytest.approx(0.5, abs=1e-12)
    assert m.plausibility(frame.parse("A")) == pytest.approx(0.5, abs=1e-12)
    # no focal element supports B: an empty total, int 0 as in plausibility
    belief = m.belief(frame.parse("B"))
    assert belief == 0 and type(belief) is int


def test_belief_frame_mismatch(m1):
    from evfuse import Frame

    with pytest.raises(ValidationError):
        m1.belief(Frame(("A", "B")).atom("A"))


def _minterm_sets(model, p):
    # independent view: explicit sets of surviving minterm masks
    return {
        m
        for m in range(1, 1 << model.frame.n)
        if p.bits >> m & 1 and not model.constrained >> m & 1
    }


def test_belief_plausibility_against_set_oracle():
    rng = random.Random(77)
    for _ in range(60):
        model = random_model(rng)
        m = random_mass(rng, model)
        p = random_mass(rng, model).focal()[0]
        target = _minterm_sets(model, p)
        bel = sum(
            v
            for q, v in m.items()
            if _minterm_sets(model, q) and _minterm_sets(model, q) <= target
        )
        pl = sum(v for q, v in m.items() if _minterm_sets(model, q) & target)
        assert m.belief(p) == pytest.approx(bel, abs=1e-12)
        assert m.plausibility(p) == pytest.approx(pl, abs=1e-12)
        assert 0.0 <= m.belief(p) <= m.plausibility(p) <= 1.0 + 1e-12


def test_belief_of_top_is_one_closed_world():
    rng = random.Random(78)
    for _ in range(30):
        model = random_model(rng)
        m = random_mass(rng, model)
        assert m.belief(model.frame.total_ignorance()) == pytest.approx(1.0, abs=1e-9)


# deviation helper -----------------------------------------------------------------

def test_deviation(m1, m2, exclusive, frame):
    assert deviation(m1, m1) == 0.0
    assert deviation(m1, m2) == pytest.approx(0.3, abs=1e-12)
    disjoint = MassFunction(exclusive, {frame.parse("C"): 1.0})
    assert deviation(m1, disjoint) == 1.0


def test_deviation_refuses_different_frames():
    # {A: 1} on (A, B) and {X: 1} on (X, Y) hold the same mask, yet they
    # are not two assignments on one frame to compare
    ab, xy, twin = Frame(("A", "B")), Frame(("X", "Y")), Frame(("A", "B"))
    a = MassFunction(Model.free(ab), {ab.parse("A"): 1.0})
    x = MassFunction(Model.free(xy), {xy.parse("X"): 1.0})
    for left, right in ((a, x), (x, a)):
        with pytest.raises(ValidationError, match="different frames"):
            deviation(left, right)
    assert deviation(a, MassFunction(Model.free(twin), {twin.parse("A"): 1.0})) == 0.0
    assert deviation(a, MassFunction(Model.exclusive(twin), {twin.parse("B"): 1.0})) == 1.0


@given(st.integers(0, 10_000))
def test_deviation_symmetry(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    a, b = random_mass(rng, model), random_mass(rng, model)
    assert deviation(a, b) == deviation(b, a)


# the exact shortcuts: each gives the bits of the plain form it skips ---------------

def _union_deviation(a, b):
    # deviation over the union of both key sets, in set order
    da, db = a._masses, b._masses
    return max((abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in da.keys() | db.keys()), default=0.0)


def _divided(merged):
    # the validator's dividing path: the total in the dict's own order, then
    # every value over it, in mask order
    total = ordered_sum(merged.values())
    return [(bits, (merged[bits] / total).hex()) for bits in sorted(merged)]


def _hexed(masses):
    return [(bits, v.hex()) for bits, v in masses.items()]


@st.composite
def shortcut_cases(draw):
    """A free, exclusive or some-pairs-exclusive model on 2-4 atoms, two
    sources, a twin of the first (its focal sets with its masses reversed:
    equal keys, other values) and the unnormalised product of the two
    sources in the order the products arise, often out of mask order."""
    model = draw_model(draw, (2, 4))
    focal = partial(draw_focal, draw, model, st.booleans())
    a, b = draw_source(draw, model, focal, 100), draw_source(draw, model, focal, 100)
    twin = MassFunction(model, zip(a.focal(), [v for _, v in reversed(a.items())]))
    raw = {}
    for x, mx in a._masses.items():
        for y, my in b._masses.items():
            raw[x & y] = raw.get(x & y, 0.0) + mx * my
    return model, a, b, twin, raw


@settings(max_examples=200, deadline=None)
@given(shortcut_cases())
def test_shortcuts_give_the_bits_of_their_plain_forms(case):
    model, a, b, twin, raw = case
    product = conjunctive(a, b)
    # the source check looks for a conflicting mask; every stored mass is > 0
    for m in (a, b, twin, product, conjunctive(a, twin)):
        assert m.is_input_valid() == (m.conflict_mass() == 0.0)
    # equal key sets zip their value views; unequal ones take the union
    for x, y in ((a, twin), (product, conjunctive(b, a)), (a, b), (a, product)):
        assert deviation(x, y).hex() == _union_deviation(x, y).hex()
    # a dict in mask order summing to exactly 1.0 is kept, any other divided
    for merged in (a._masses, twin._masses, product._masses, raw):
        assert _hexed(_validated(model, dict(merged), True)) == _divided(merged)


def test_validation_keeps_only_a_dict_in_mask_order_summing_to_exactly_one(exclusive, frame):
    a, b, c = (frame.parse(name).bits for name in "ABC")
    assert a < b < c
    # in mask order, total exactly 1.0: the dict itself, its values untouched
    d = {a: 0.5, b: 0.25, c: 0.25}
    m = MassFunction._of_masks(exclusive, d)
    assert m._masses is d and list(m._masses) == [a, b, c]
    assert m._masses == {a: 0.5, b: 0.25, c: 0.25}
    # out of mask order, total exactly 1.0: sorted into mask order
    d = {c: 0.25, a: 0.5, b: 0.25}
    assert list(MassFunction._of_masks(exclusive, d)._masses) == [a, b, c]
    # in mask order, total 0.9999999999999999: divided, so every value moves
    d = {a: 0.7, b: 0.2, c: 0.1}
    total = ordered_sum(d.values())
    assert total != 1.0
    got = MassFunction._of_masks(exclusive, d)._masses
    assert _hexed(got) == _divided(d)
    assert all(got[bits] != v for bits, v in d.items())


# public views of the by-mask storage ---------------------------------------------------

def _assert_views_agree(m: MassFunction):
    """Every public view of ``m`` shows the same terms in mask order."""
    items = list(m.items())
    props = [p for p, _ in items]
    bits = [p.bits for p in props]
    assert bits == sorted(set(bits))
    assert all(isinstance(p, Proposition) and p.frame == m.frame for p in props)
    assert list(m.terms.items()) == items
    assert list(m.focal()) == props and len(m.focal()) == len(m) == len(items)
    # the same bits on a separately built twin frame are the same
    # proposition; on a frame with other atom names they are not
    twin = Frame(m.frame.atoms)
    other = Frame(tuple(name.lower() for name in m.frame.atoms))
    for p, v in items:
        assert m.mass(p) == m.mass(Proposition(twin, p.bits)) == v
        assert m.mass(Proposition(other, p.bits)) == 0.0
    atoms = [m.frame.atom(i) for i in range(m.frame.n)]
    probes = {0, m.frame.full_bits} | {x.bits & y.bits for x in atoms for y in atoms}
    probes |= {x.bits | y.bits for x in atoms for y in atoms}
    assert all(m.mass(Proposition(m.frame, b)) == 0.0 for b in probes - set(bits))
    assert len(m.items()) == len(m)
    # belief and plausibility of every focal element, from the items
    visible = ~m.model.constrained
    for p in props:
        target = p.bits & visible
        bel = 0.0
        for q, v in items:
            if q.bits & visible and q.bits & visible & ~target == 0:
                bel += v
        assert m.belief(p) == bel
        assert m.plausibility(p) == ordered_sum(v for q, v in items if q.bits & p.bits & visible)
    assert repr(m) == "MassFunction({" + ", ".join(f"{p.text()}: {v:.6f}" for p, v in items) + "})"


@pytest.mark.parametrize("line,kind,count,epsilon", GOLDEN_LINES, ids=[g[0] for g in GOLDEN_LINES])
def test_views_agree_on_sources_and_snapshots(line, kind, count, epsilon):
    model = golden_model(kind)
    twin_model = Model(Frame(model.frame.atoms), model.constrained)
    sources, twins = golden_sources(line, model, 12), golden_sources(line, twin_model, 12)
    state = FusionState.initial(model, epsilon).fold(sources)
    twin_state = FusionState.initial(twin_model, epsilon).fold(twins)
    assert sources == twins and sources[0] != sources[1]
    checked = [*sources, vbf(model), state.accumulator]
    for rule in Rule:
        try:
            snapshot = state.snapshot(rule)
        except TotalConflictError:
            continue
        # equal on a twin frame, and a fresh object every time
        assert snapshot == state.snapshot(rule) == twin_state.snapshot(rule)
        assert snapshot is not state.snapshot(rule)
        checked.append(snapshot)
    for m in checked:
        _assert_views_agree(m)
    cols = state.columns
    assert [p.bits for p in cols.sums] == sorted(p.bits for p in cols.sums)
    assert cols == twin_state.columns and cols != ColumnSums.empty(model)
    assert all(p.bits for p in cols.sums) and len(cols.sums) == len({p.bits for m in sources for p in m.focal()})


def test_an_equal_twin_model_hands_out_its_own_propositions():
    model = golden_model("ring")
    twin = Model(Frame(model.frame.atoms), model.constrained)
    assert twin == model and twin.frame is not model.frame
    states = [FusionState.initial(m).fold(golden_sources("ring", m, 12)) for m in (model, twin)]
    assert states[0] == states[1]
    for rule in (Rule.SDLI, Rule.DUBOIS_PRADE):
        assert states[0].snapshot(rule) == states[1].snapshot(rule)
    for m, state in zip((model, twin), states):
        for p in state.accumulator.terms:
            assert p.frame is m.frame
            if p.bits:
                assert all(g.frame is m.frame for g in p.conflict_parties())
                assert p.atoms_union().frame is m.frame


def _hex_snapshots(state):
    return {rule: [(p.bits, v.hex()) for p, v in state.snapshot(rule).items()]
            for rule in (Rule.SDLI, Rule.DUBOIS_PRADE)}


@pytest.mark.parametrize("first,second", [("exclusive", "ring"), ("ring", "exclusive")])
def test_one_frames_memos_serve_every_model_on_it(first, second):
    # the frame memoises decompositions by mask alone, so a line folded
    # under one model reads entries another model on that frame wrote
    shared = Frame(GOLDEN_ATOMS)
    earlier = Model(shared, golden_model(first).constrained)
    _hex_snapshots(FusionState.initial(earlier).fold(golden_sources(first, earlier, 40)))
    filled = set(shared._routes)
    later = Model(shared, golden_model(second).constrained)
    states = [FusionState.initial(m).fold(golden_sources(second, m, 40))
              for m in (later, golden_model(second))]
    assert _hex_snapshots(states[0]) == _hex_snapshots(states[1])
    visible = ~later.constrained
    assert {bits for bits in states[0].accumulator._masses if not bits & visible} & filled


@pytest.mark.parametrize("reverse", [False, True])
def test_union_and_party_routes_read_one_memo_entry(reverse):
    # the union route fills one entry per conflicting mask, holding the
    # mask's parties, so sdli's party split and union fallback add none
    model = golden_model("ring")
    sources = golden_sources("ring", model, 20)
    state = FusionState.initial(model).fold(sources[::-1] if reverse else sources)
    state.snapshot(Rule.DUBOIS_PRADE)
    routes, visible = model.frame._routes, ~model.constrained
    conflicting = [bits for bits in state.accumulator._masses if not bits & visible]
    assert len(conflicting) > 1 and set(conflicting) <= set(routes)
    filled = set(routes)
    for bits in conflicting:
        if bits:
            assert routes[bits][0] == tuple(g.bits for g in Proposition(model.frame, bits)
                                            .conflict_parties())
    state.snapshot(Rule.SDLI)
    assert set(routes) == filled


def _dropped_line(kind):
    # weak references to the model and frame of a folded, snapshotted line
    model = golden_model(kind)
    state = FusionState.initial(model).fold(golden_sources(kind, model, 20))
    for rule in Rule:
        try:
            assert [p.text() for p in state.snapshot(rule).focal()]
        except TotalConflictError:
            pass
    for p in [*state.accumulator.terms, *state.columns.sums]:
        if p.bits:
            p.conflict_parties(), p.atoms_union()
    return weakref.ref(model), weakref.ref(model.frame)


@pytest.mark.parametrize("kind", ["free", "exclusive", "ring"])
def test_a_dropped_line_needs_no_cycle_collector(kind):
    # nothing a line builds refers back to its model or frame, so reference
    # counting alone frees them
    gc.collect()
    gc.disable()
    try:
        refs = _dropped_line(kind)
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
