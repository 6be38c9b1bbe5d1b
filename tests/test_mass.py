"""Mass assignments, column sums, belief and plausibility."""

import gc
import random
import weakref

import pytest
from hypothesis import given, strategies as st

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
    deviation,
    vbf,
)

from support import (
    COLUMNS_12,
    COLUMNS_123,
    GOLDEN_LINES,
    UNION_12,
    as_text_dict,
    golden_model,
    golden_sources,
    mass_from_rows,
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


def test_frame_mismatch(exclusive):
    from evfuse import Frame

    other = Frame(("A", "B"))
    with pytest.raises(ValidationError):
        MassFunction(exclusive, {other.atom("A"): 1.0})


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


# public views of the by-mask storage ---------------------------------------------------

def _assert_views_agree(m: MassFunction):
    """Every public view of ``m`` shows the same terms in mask order."""
    items = list(m.items())
    props = [p for p, _ in items]
    bits = [p.bits for p in props]
    assert bits == sorted(set(bits))
    assert all(isinstance(p, Proposition) and p.frame == m.frame for p in props)
    assert list(m.terms.items()) == items
    assert all(p is q for p, q in zip(m.terms, props))
    assert all(p is q for p, q in zip(m.focal(), props)) and len(m.focal()) == len(m) == len(items)
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
        assert m.plausibility(p) == sum(v for q, v in items if q.bits & p.bits & visible)
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
    assert all(cols.value(p.bits) == v for p, v in cols.sums.items())
    assert cols == twin_state.columns and cols != ColumnSums.empty(model)
    assert cols.value(0) == 0.0 and len(cols.sums) == len({p.bits for m in sources for p in m.focal()})


# one Proposition per mask, held by the model --------------------------------------------

@pytest.mark.parametrize("line,kind,count,epsilon", GOLDEN_LINES, ids=[g[0] for g in GOLDEN_LINES])
def test_views_hand_out_one_proposition_per_mask(line, kind, count, epsilon):
    model = golden_model(kind)
    seen = {}

    def see(props):
        for p in props:
            assert seen.setdefault(p.bits, p) is p, p

    state = FusionState.initial(model, epsilon)
    for source in golden_sources(line, model, 30):
        see(source.focal())
        state = state.fuse(source)
        see(state.accumulator.terms)
        see(state.columns.sums)
        for rule in Rule:
            try:
                see(p for p, _ in state.snapshot(rule).items())
            except TotalConflictError:
                pass
    assert all(p is model._prop(bits) for bits, p in seen.items())
    # the sdli route decomposed the model's objects, so their cached
    # parties outlive the states that held them
    visible = ~model.constrained
    conflicting = [p for p in state.accumulator.terms if p.bits and not p.bits & visible]
    assert bool(conflicting) == bool(model.constrained)
    assert all("_conflict_parties" in p.__dict__ for p in conflicting)


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
            assert p.frame is m.frame and p is m._prop(p.bits)
            if p.bits:
                assert all(g.frame is m.frame for g in p.conflict_parties())
                assert p.atoms_union().frame is m.frame
    ours, theirs = ({id(p) for p in s.accumulator.terms} for s in states)
    assert not ours & theirs


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
