"""The stored-state engine: streaming, snapshots, order invariance."""

import random
from itertools import permutations

import pytest

from evfuse import (
    Frame,
    FusionState,
    MassFunction,
    Model,
    Rule,
    TotalConflictError,
    ValidationError,
    batch,
    combine2,
    conjunctive,
    deviation,
    oracle_conjunctive,
    vbf,
)

from support import (
    CONJ_12,
    CONJ_123,
    CONJ_1234,
    SDLI_123_EXACT,
    UNION_12,
    UNION_123,
    UNION_1234,
    YAGER_CHAINED_123,
    assert_masses,
    as_text_dict,
    random_mass,
    random_model,
    random_sources,
)

ALL_RULES = list(Rule)


# initial state -----------------------------------------------------------------

def test_initial_state(exclusive):
    state = FusionState.initial(exclusive)
    assert state.source_count == 0
    assert as_text_dict(state.accumulator) == {"A|B|C": 1.0}
    for rule in ALL_RULES:
        assert as_text_dict(state.snapshot(rule)) == {"A|B|C": 1.0}


def test_initial_prune_bounds(exclusive):
    with pytest.raises(ValidationError):
        FusionState.initial(exclusive, prune_epsilon=1.0)
    with pytest.raises(ValidationError):
        FusionState.initial(exclusive, prune_epsilon=-0.1)


def test_first_fuse_adopts_source(exclusive, m1):
    state = FusionState.initial(exclusive).fuse(m1)
    assert deviation(state.accumulator, m1) <= 1e-15
    assert state.columns.sums == m1.terms


def test_fuse_model_guard(exclusive, free, frame):
    other = MassFunction(free, {frame.parse("A"): 1.0})
    with pytest.raises(ValidationError):
        FusionState.initial(exclusive).fuse(other)


def test_fuse_accepts_an_equal_model_built_another_way():
    frame = Frame(("A", "B"))
    one, other = Model.exclusive(frame), Model.with_exclusions(frame, [("A", "B")])
    source = MassFunction(other, {frame.parse("A"): 0.7, frame.parse("A|B"): 0.3})
    state = FusionState.initial(one).fuse(source)
    assert state.snapshot(Rule.DEMPSTER) == source
    assert conjunctive(vbf(one), source) == source


# streaming fixture -----------------------------------------------------------------

def test_streaming_accumulators(exclusive, m1, m2, m3, m4):
    state = FusionState.initial(exclusive).fuse(m1).fuse(m2)
    assert_masses(state.accumulator, CONJ_12)
    state = state.fuse(m3)
    assert_masses(state.accumulator, CONJ_123)
    state = state.fuse(m4)
    assert_masses(state.accumulator, CONJ_1234)
    assert state.source_count == 4


def test_streaming_snapshots(exclusive, m1, m2, m3, m4):
    state = FusionState.initial(exclusive).fuse(m1).fuse(m2)
    assert_masses(state.snapshot(Rule.DSM_HYBRID), UNION_12)
    state = state.fuse(m3)
    assert_masses(state.snapshot(Rule.DSM_HYBRID), UNION_123)
    assert_masses(state.snapshot(Rule.SDLI), SDLI_123_EXACT, tol=1e-12)
    state = state.fuse(m4)
    assert_masses(state.snapshot(Rule.DSM_HYBRID), UNION_1234)


def test_snapshot_is_pure(exclusive, m1, m2):
    state = FusionState.initial(exclusive).fuse(m1).fuse(m2)
    before = state.accumulator.terms
    first = state.snapshot(Rule.SDLI)
    second = state.snapshot(Rule.SDLI)
    assert first == second  # bit-identical values
    assert state.accumulator.terms == before


def test_snapshot_classic_keeps_conflicts(exclusive, m1, m2):
    state = FusionState.initial(exclusive).fuse(m1).fuse(m2)
    snap = state.snapshot(Rule.DSM_CLASSIC)
    assert_masses(snap, CONJ_12)
    assert not snap.is_input_valid()


def test_snapshot_dempster_total_conflict(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 1.0})
    b = MassFunction(exclusive, {frame.parse("B"): 1.0})
    state = FusionState.initial(exclusive).fuse(a).fuse(b)
    with pytest.raises(TotalConflictError):
        state.snapshot(Rule.DEMPSTER)


# fold --------------------------------------------------------------------------------

def test_fold_equals_fuse_loop(exclusive, m1, m2, m3, m4):
    state = FusionState.initial(exclusive)
    for m in (m1, m2, m3, m4):
        state = state.fuse(m)
    assert FusionState.initial(exclusive).fold([m1, m2, m3, m4]) == state


def test_fold_nothing(exclusive, m1):
    state = FusionState.initial(exclusive).fuse(m1)
    assert state.fold([]) == state


def test_fold_keeps_prune_epsilon(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 0.99, frame.parse("B"): 0.01})
    folded = FusionState.initial(exclusive, prune_epsilon=0.05).fold([a, a])
    assert folded.prune_epsilon == 0.05
    assert folded == FusionState.initial(exclusive, prune_epsilon=0.05).fuse(a).fuse(a)
    assert all(v >= 0.05 for _, v in folded.accumulator.items())


@pytest.mark.parametrize("prune_epsilon", [0.0, 0.02])
def test_fuse_keeps_the_terms_it_shares(prune_epsilon):
    # a stored term that survives a fold is the same object afterwards,
    # so its cached decomposition survives with it
    rng = random.Random(f"identity/{prune_epsilon}")
    shared = 0
    for _ in range(5):
        model = random_model(rng, n=4)
        state = FusionState.initial(model, prune_epsilon)
        for m in random_sources(rng, model, 5):
            successor = state.fuse(m)
            before = {p.bits: p for p in state.accumulator.terms}
            for p in successor.accumulator.terms:
                if p.bits in before:
                    assert p is before[p.bits], p
                    shared += 1
            state = successor
    assert shared


# batch -------------------------------------------------------------------------------

def test_batch_matches_fixture(exclusive, m1, m2, m3):
    assert_masses(batch(exclusive, [m1, m2, m3], Rule.DSM_HYBRID), UNION_123)


def test_batch_other_grouping(exclusive, m1, m2, m3):
    direct = batch(exclusive, [m2, m3, m1], Rule.DSM_HYBRID)
    assert_masses(direct, UNION_123)


def test_batch_single_source_identity(exclusive, m1):
    for rule in ALL_RULES:
        assert deviation(batch(exclusive, [m1], rule), m1) <= 1e-15


def test_batch_empty_rejected(exclusive):
    with pytest.raises(ValidationError):
        batch(exclusive, [], Rule.YAGER)


# oracle ------------------------------------------------------------------------------

def test_oracle_fixture(exclusive, m1, m2, m3):
    assert_masses(oracle_conjunctive([m1, m2, m3]), CONJ_123)


def test_oracle_base_case(exclusive, m1, m2):
    from evfuse import conjunctive

    assert deviation(oracle_conjunctive([m1, m2]), conjunctive(m1, m2)) <= 1e-15


def test_oracle_vbf_neutral(exclusive, m1):
    assert deviation(oracle_conjunctive([m1, vbf(exclusive)]), m1) <= 1e-15


def test_oracle_needs_two(exclusive, m1):
    with pytest.raises(ValidationError):
        oracle_conjunctive([m1])


# stored-state properties ----------------------------------------------------------------

def test_markov_requirement_random():
    rng = random.Random(90901)
    for _ in range(60):
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(2, 5))
        state = FusionState.initial(model)
        for k, m in enumerate(sources, start=1):
            state = state.fuse(m)
            if k >= 2:
                assert deviation(state.accumulator, oracle_conjunctive(sources[:k])) <= 1e-12


def _snapshot_or_error(model, sources, rule):
    state = FusionState.initial(model)
    for m in sources:
        state = state.fuse(m)
    try:
        return state.snapshot(rule), None
    except TotalConflictError as exc:
        return None, exc


def test_permutation_invariance_random_all_rules():
    rng = random.Random(5150)
    for _ in range(40):
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(2, 4))
        for rule in ALL_RULES:
            base, base_err = _snapshot_or_error(model, sources, rule)
            for order in permutations(range(len(sources))):
                snap, err = _snapshot_or_error(model, [sources[i] for i in order], rule)
                if base_err is not None:
                    assert err is not None  # conflict is order-invariant too
                else:
                    assert err is None
                    assert deviation(snap, base) <= 1e-9


def test_vbf_neutrality_all_rules():
    rng = random.Random(7007)
    for _ in range(30):
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(1, 4))
        neutral = vbf(model)
        for rule in ALL_RULES:
            base, base_err = _snapshot_or_error(model, sources, rule)
            position = rng.randint(0, len(sources))
            padded = sources[:position] + [neutral] + sources[position:]
            snap, err = _snapshot_or_error(model, padded, rule)
            if base_err is not None:
                assert err is not None
            else:
                assert deviation(snap, base) <= 1e-12


def _dempster_pair(a: MassFunction, b: MassFunction) -> MassFunction:
    # independent classic two-source rule: product, drop empties, normalize
    model = a.model
    out = {}
    for x, mx in a.items():
        for y, my in b.items():
            z = x & y
            if not model.is_empty(z):
                out[z] = out.get(z, 0.0) + mx * my
    total = sum(out.values())
    if total <= 0.0:
        raise TotalConflictError("chained combination undefined")
    return MassFunction(model, {p: v / total for p, v in out.items()})


def test_dempster_snapshot_matches_chained():
    rng = random.Random(31337)
    done = 0
    while done < 60:
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(2, 4))
        try:
            chained = sources[0]
            for m in sources[1:]:
                chained = _dempster_pair(chained, m)
        except TotalConflictError:
            continue  # draw another case; conflict handling tested elsewhere
        engine = batch(model, sources, Rule.DEMPSTER)
        assert deviation(engine, chained) <= 1e-9
        done += 1


def test_negative_control_chaining_differs(exclusive, m1, m2, m3):
    # transferring after every step is NOT the same as the stored-state
    # engine; this is the whole point of keeping the pre-transfer result
    for rule in (Rule.YAGER, Rule.DUBOIS_PRADE):
        chained = combine2(rule, combine2(rule, m1, m2), m3)
        engine = batch(exclusive, [m1, m2, m3], rule)
        assert deviation(chained, engine) > 1e-3
    chained_yager = combine2(Rule.YAGER, combine2(Rule.YAGER, m1, m2), m3)
    assert_masses(chained_yager, YAGER_CHAINED_123)


# pruning (approximation flag) --------------------------------------------------------

def test_pruning_renormalizes(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 0.99, frame.parse("B"): 0.01})
    b = MassFunction(exclusive, {frame.parse("A"): 0.99, frame.parse("B"): 0.01})
    state = FusionState.initial(exclusive, prune_epsilon=0.05).fuse(a).fuse(b)
    total = sum(v for _, v in state.accumulator.items())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0.05 for _, v in state.accumulator.items())


def test_pruning_breaks_permutation_invariance(exclusive, frame):
    rows = [
        {"A": 0.9, "B": 0.1},
        {"A": 0.9, "B": 0.1},
        {"A": 0.5, "B": 0.5},
    ]
    sources = [
        MassFunction(exclusive, {frame.parse(k): v for k, v in row.items()})
        for row in rows
    ]

    def run(order):
        state = FusionState.initial(exclusive, prune_epsilon=0.05)
        for i in order:
            state = state.fuse(sources[i])
        return state.snapshot(Rule.YAGER)

    worst = max(
        deviation(run(order), run((0, 1, 2))) for order in permutations(range(3))
    )
    assert worst > 1e-9
