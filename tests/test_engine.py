"""The stored-state engine: streaming, snapshots, order invariance."""

import pickle
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from evfuse import (
    ColumnSums,
    Frame,
    FusionState,
    MassFunction,
    Model,
    Rule,
    TotalConflictError,
    ValidationError,
    combine2,
    conjunctive,
    deviation,
    oracle_conjunctive,
    vbf,
)
from evfuse import engine
from evfuse import mass as mass_module
from evfuse.cli import load_scenario

from support import (
    CONFLICT_123,
    CONFLICT_1234,
    CONJ_12,
    CONJ_123,
    CONJ_1234,
    SCENARIO_DIR,
    SDLI_123_EXACT,
    UNION_12,
    UNION_123,
    UNION_1234,
    YAGER_CHAINED_123,
    assert_masses,
    as_text_dict,
    draw_model,
    draw_source,
    golden_model,
    golden_sources,
    mass_from_rows,
    random_mass,
    random_model,
    random_sources,
    ref_exact_snapshot,
    ref_exact_state,
    state_limit_line,
    unions_of_atoms,
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


@pytest.mark.parametrize("prune_epsilon", [1.5, float("nan")])
def test_constructor_prune_bounds(exclusive, prune_epsilon):
    # 1.5 used to fail only at the next fuse ("pruning threshold removed
    # every term"); NaN compared false and silently turned pruning off
    with pytest.raises(ValidationError, match=r"prune_epsilon must lie in \[0, 1\)"):
        FusionState(vbf(exclusive), ColumnSums.empty(exclusive), prune_epsilon)


@pytest.mark.parametrize("prune_epsilon", ["0.5", None, [0.5], False, True])
def test_a_prune_epsilon_that_is_not_a_number_is_a_validation_error(exclusive, prune_epsilon):
    # the first three raised TypeError from the comparison; False compared
    # as 0 and was accepted
    message = f"prune_epsilon must lie in [0, 1), got {prune_epsilon!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        FusionState.initial(exclusive, prune_epsilon)


def test_constructor_rejects_columns_of_another_model(exclusive, free, m1):
    # the yager snapshot of such a state used to succeed
    accumulator = FusionState.initial(exclusive).fuse(m1).accumulator
    with pytest.raises(ValidationError, match="column sums use a different model"):
        FusionState(accumulator, ColumnSums.empty(free))


def test_first_fuse_adopts_source(exclusive, m1):
    state = FusionState.initial(exclusive).fuse(m1)
    assert deviation(state.accumulator, m1) <= 1e-15
    assert state.columns.sums == m1.terms


def test_fuse_model_guard(exclusive, free, m1, frame):
    # the product's own model check refuses a source of another model on
    # the frame, before the successor's constructor runs
    other = MassFunction(free, {frame.parse("A"): 0.5, frame.parse("A&B"): 0.5})
    for state in (FusionState.initial(exclusive), FusionState.initial(exclusive).fuse(m1)):
        with pytest.raises(ValidationError, match="^operands use different models$"):
            state.fuse(other)


@pytest.mark.parametrize("epsilon", [0.0, 0.02])
def test_a_fused_state_is_the_state_its_constructor_builds(epsilon):
    rng = random.Random("fused-state")
    for _ in range(20):
        model = random_model(rng)
        state = FusionState.initial(model, epsilon)
        for m in random_sources(rng, model, 4):
            state = state.fuse(m)
            built = FusionState(state.accumulator, state.columns, state.prune_epsilon)
            assert state == built and vars(state) == vars(built)
            back = pickle.loads(pickle.dumps(state))
            assert back == state and state_bits(back) == state_bits(state)


def test_a_state_past_the_size_limit_is_refused_before_the_product(monkeypatch):
    # the line the CLI test folds under a memory cap, here in process
    names, rows = state_limit_line()
    model = Model.free(Frame(names))
    sources = [mass_from_rows(model, masses) for masses in rows]
    calls = []

    def counted(a, b):
        calls.append(b)
        return conjunctive(a, b)

    monkeypatch.setattr(engine, "conjunctive", counted)
    state = FusionState.initial(model).fold(sources[:5])
    before = state_bits(state)
    with pytest.raises(ValidationError, match=re.escape(
            "source 6: the state could grow to 2832 terms of 2**16 bits, past the limit of "
            "134217728 mask bits; prune_epsilon bounds the state")):
        state.fuse(sources[5])
    assert calls == sources[:5]
    assert state_bits(state) == before


def test_fuse_rejects_mass_on_a_model_empty_proposition(exclusive, frame):
    # a combination output may hold conflict; a source may not
    conflicting = MassFunction(exclusive, {frame.parse("A&B"): 0.5, frame.parse("C"): 0.5},
                               allow_conflict=True)
    with pytest.raises(ValidationError,
                       match="^source puts mass on model-empty propositions$"):
        FusionState.initial(exclusive).fuse(conflicting)


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
    assert state.accumulator.conflict_mass() == pytest.approx(CONFLICT_123, abs=1e-9)
    state = state.fuse(m4)
    assert_masses(state.accumulator, CONJ_1234)
    assert state.accumulator.conflict_mass() == pytest.approx(CONFLICT_1234, abs=1e-9)
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


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
def test_no_snapshot_shares_the_stored_dict(exclusive, m1, m2, rule):
    # the accumulators here are in mask order and total exactly 1.0, so the
    # validator keeps the dict it is handed: apply_transfer copies the
    # accumulator, and the validator keeps that copy
    for state in (FusionState.initial(exclusive), FusionState.initial(exclusive).fuse(m1),
                  FusionState.initial(exclusive).fuse(m1).fuse(m2)):
        assert mass_module.ordered_sum(state.accumulator._masses.values()) == 1.0
        assert state.snapshot(rule)._masses is not state.accumulator._masses


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


# fold then one snapshot --------------------------------------------------------------

def test_batch_matches_fixture(exclusive, m1, m2, m3):
    fused = FusionState.initial(exclusive).fold([m1, m2, m3])
    assert_masses(fused.snapshot(Rule.DSM_HYBRID), UNION_123)


def test_batch_other_grouping(exclusive, m1, m2, m3):
    direct = FusionState.initial(exclusive).fold([m2, m3, m1]).snapshot(Rule.DSM_HYBRID)
    assert_masses(direct, UNION_123)


def test_batch_single_source_identity(exclusive, m1):
    for rule in ALL_RULES:
        assert deviation(FusionState.initial(exclusive).fold([m1]).snapshot(rule), m1) <= 1e-15


def _outcome(combine, *args):
    try:
        return combine(*args)
    except (TotalConflictError, ValidationError) as exc:
        return type(exc)


def test_combine2_matches_the_two_source_fold():
    # combine2 is that fold's snapshot, so the two agree to the bit
    for seed in range(600):
        rng = random.Random(seed)
        model = random_model(rng)
        m1, m2 = random_sources(rng, model, 2)
        state = FusionState.initial(model).fold([m1, m2])
        for rule in ALL_RULES:
            direct, folded = _outcome(combine2, rule, m1, m2), _outcome(state.snapshot, rule)
            if isinstance(direct, type) or isinstance(folded, type):
                assert direct == folded, (seed, rule)
            else:
                assert mass_bits(direct) == mass_bits(folded), (seed, rule)


def test_combine2_refuses_a_product_past_the_state_limit_before_building_it(monkeypatch):
    # 50 x 50 terms of 2**16 bits pass the limit, as they would for fuse
    rng, names = random.Random("state-limit"), [chr(ord("A") + i) for i in range(16)]
    model = Model.free(Frame(names))
    m1, m2 = (mass_from_rows(model, dict.fromkeys(unions_of_atoms(rng, names, 50), 1 / 50))
              for _ in range(2))
    calls = []

    def counted(a, b):
        calls.append(b)
        return conjunctive(a, b)

    monkeypatch.setattr(engine, "conjunctive", counted)
    with pytest.raises(ValidationError, match="^" + re.escape(
            "source 2: the state could grow to 2500 terms of 2**16 bits")):
        combine2(Rule.DSM_HYBRID, m1, m2)
    assert len(calls) == 1 and calls[0] is m1


def test_combine2_refuses_an_open_world_operand(exclusive):
    # a Smets result keeps its conflict on the empty set, so it is no source
    smets = combine2(Rule.SMETS, mass_from_rows(exclusive, {"A": 0.6, "B": 0.4}),
                     mass_from_rows(exclusive, {"B": 0.5, "C": 0.5}))
    with pytest.raises(ValidationError,
                       match="^source puts mass on model-empty propositions$"):
        combine2(Rule.YAGER, smets, vbf(exclusive))


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


def mass_bits(m) -> list:
    """A mass function or column sums as its masks and float.hex values, in key order."""
    return [(bits, v.hex()) for bits, v in m._masses.items()]


def state_bits(state) -> tuple:
    """A stored state as its masks, float.hex values and source count."""
    return mass_bits(state.accumulator), mass_bits(state.columns), state.source_count


@pytest.mark.parametrize("epsilon", [0.0, 0.02])
def test_a_fold_continued_from_a_prefix_state_equals_a_fold_from_the_start(epsilon):
    # the Markov requirement to the bit: the state after a prefix depends on
    # that prefix alone, so a list may be folded on from the state after the
    # longest prefix it shares with a chain of states already folded
    rng = random.Random("refolded")
    model = random_model(rng, n=4)
    masses = random_sources(rng, model, 6)
    start = FusionState.initial(model, epsilon)
    chain = [start]
    for m in masses:
        chain.append(chain[-1].fuse(m))
    neutral = vbf(model)
    # repeats, a prefix, then longer lists again, lists leaving the chain's
    # order at every point, and lists of other sources or none
    lists = [masses, masses, masses[:3], masses[:3] + [neutral], masses,
             masses[:2] + masses[3:], masses[::-1], masses[:1], [], masses + masses[:2],
             [neutral] + masses, masses[:4] + [neutral] + masses[4:], [masses[1]] * 3]
    for lst in lists:
        k = max(i for i in range(min(len(lst), len(masses)) + 1) if lst[:i] == masses[:i])
        got = chain[k].fold(lst[k:])
        want = start.fold(lst)
        assert got == want and state_bits(got) == state_bits(want)
        if k == len(lst):  # a prefix of the chain's own list is the chain's state
            assert got is chain[k]


def _snapshot_or_error(model, sources, rule):
    state = FusionState.initial(model)
    for m in sources:
        state = state.fuse(m)
    try:
        return state.snapshot(rule), None
    except TotalConflictError as exc:
        return None, exc


def _grouping_cases():
    # (start, sources): the shipped scenarios, the golden ones without
    # prune_epsilon, then seeded random lines of 2-7 sources on 3-5 atoms
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    paths += [SCENARIO_DIR.parent / "tests" / "golden" / "scenarios" / name
              for name in ("exclusive4_eight.json", "free5.json", "ring5.json")]
    for path in paths:
        scenario = load_scenario(str(path))
        yield scenario.start, scenario.masses
    for seed in range(300):
        rng = random.Random(f"grouping/{seed}")
        model = random_model(rng, rng.randint(3, 5))
        yield FusionState.initial(model), random_sources(rng, model, rng.randint(2, 7))


def _outcome_of(state, rule):
    try:
        return state.snapshot(rule), None
    except TotalConflictError as exc:
        return None, exc


def test_every_rule_is_associative_over_any_split_of_the_sources():
    # the stored state of the sources split in two is the conjunctive product
    # of the two sides' states, with their column sums added; its snapshot
    # must match the fold of all the sources, or raise where that raises.
    # The bound was fixed before the first run.
    for start, masses in _grouping_cases():
        model, n, whole = start.model, len(masses), start.fold(masses)
        for k in range(n + 1):
            left, right = start.fold(masses[:k]), start.fold(masses[k:])
            sums = [*left.columns.sums.items(), *right.columns.sums.items()]
            joined = FusionState(conjunctive(left.accumulator, right.accumulator),
                                 ColumnSums(model, sums, n))
            for rule in ALL_RULES:
                want, want_err = _outcome_of(whole, rule)
                got, got_err = _outcome_of(joined, rule)
                assert (got_err is None) == (want_err is None), (k, rule)
                if want_err is None:
                    assert deviation(got, want) <= 1e-12, (k, rule)


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
        engine = FusionState.initial(model).fold(sources).snapshot(Rule.DEMPSTER)
        assert deviation(engine, chained) <= 1e-9
        done += 1


def test_negative_control_chaining_differs(exclusive, m1, m2, m3):
    # transferring after every step is NOT the same as the stored-state
    # engine; this is the whole point of keeping the pre-transfer result
    for rule in (Rule.YAGER, Rule.DUBOIS_PRADE):
        chained = combine2(rule, combine2(rule, m1, m2), m3)
        engine = FusionState.initial(exclusive).fold([m1, m2, m3]).snapshot(rule)
        assert deviation(chained, engine) > 1e-3
    chained_yager = combine2(Rule.YAGER, combine2(Rule.YAGER, m1, m2), m3)
    assert_masses(chained_yager, YAGER_CHAINED_123)


@pytest.mark.parametrize("count", [
    600,
    pytest.param(700, marks=pytest.mark.xfail(
        strict=True, raises=TotalConflictError,
        reason="the kept terms underflow to 0 by 650 sources; ROADMAP item 5")),
])
def test_dempster_on_a_long_alternating_stream(count):
    # after an even number of sources the kept masses of A and B are equal
    frame = Frame(("A", "B"))
    model = Model.exclusive(frame)
    a, b = frame.atom("A"), frame.atom("B")
    sources = [MassFunction(model, {a: 0.9, b: 0.1}), MassFunction(model, {a: 0.1, b: 0.9})]
    state = FusionState.initial(model).fold(sources[i % 2] for i in range(count))
    assert as_text_dict(state.snapshot(Rule.DEMPSTER)) == {"A": 0.5, "B": 0.5}


# the float engine against the exact reference ------------------------------------------
# Every float step adds or multiplies positive numbers or divides by a
# positive total, so rounding errors only add up, about 2**-53 relative
# per step.  With at most 12 folds of at most 4 focal sets, a few
# hundred products summed into one term per fold, and one transfer,
# that stays below 1e-12; the bound below was fixed before the first run.
EXACT_RELATIVE_BOUND = 1e-11


@st.composite
def exact_lines(draw):
    """A model on 3-5 atoms (free, exclusive or some exclusive pairs) and
    1-12 sources of 1-4 focal sets each, with masses k/64."""
    model = draw_model(draw, (3, 5))
    frame, n = model.frame, model.frame.n

    def focal():
        # a union of 1-3 intersections of atoms, widened by an atom when
        # the model leaves nothing of it
        p = frame.empty()
        for _ in range(draw(st.integers(1, 3))):
            term = frame.total_ignorance()
            for i in range(n):
                if draw(st.booleans()):
                    term = term & frame.atom(i)
            p = p | term
        return p | frame.atom(draw(st.integers(0, n - 1))) if model.is_empty(p) else p

    sources = [draw_source(draw, model, focal, 64) for _ in range(draw(st.integers(1, 12)))]
    return model, sources


@settings(max_examples=100, deadline=None)
@given(exact_lines())
def test_every_rule_matches_the_exact_reference(line):
    model, sources = line
    state = FusionState.initial(model).fold(sources)
    product, columns = ref_exact_state(sources)
    for rule in Rule:
        want = ref_exact_snapshot(rule, model, product, columns)
        if want is None:
            with pytest.raises(TotalConflictError):
                state.snapshot(rule)
            continue
        got = {p.bits: v for p, v in state.snapshot(rule).items()}
        assert got.keys() == want.keys(), rule
        for bits, exact in want.items():
            assert abs(Fraction(got[bits]) - exact) <= EXACT_RELATIVE_BOUND * exact, (rule, bits)


# The golden lines fold far more sources than the properties above.  Each
# fold takes a product, an add into its term and a renormalising division
# per term, and a snapshot one transfer share: about four roundings of
# 2**-53 relative per source, so the error grows with the source count.
# The bound was fixed before the first run.
LONG_LINE_SOURCES = 50
ROUNDINGS_PER_SOURCE = 4
LONG_LINE_BOUND = ROUNDINGS_PER_SOURCE * LONG_LINE_SOURCES * 2.0 ** -53


@pytest.mark.parametrize("kind", ["exclusive", "ring", "free"])
def test_long_golden_lines_stay_near_the_exact_reference(kind):
    model = golden_model(kind)
    sources = golden_sources(kind, model, LONG_LINE_SOURCES)
    state = FusionState.initial(model).fold(sources)
    product, columns = ref_exact_state(sources)
    for rule in Rule:
        want = ref_exact_snapshot(rule, model, product, columns)
        got = {p.bits: v for p, v in state.snapshot(rule).items()}
        assert got.keys() <= want.keys(), rule
        # a term that underflowed and was dropped counts as error 1
        worst = max(abs(Fraction(got.get(bits, 0.0)) - exact) / exact
                    for bits, exact in want.items())
        assert worst <= LONG_LINE_BOUND, (rule, float(worst))


def test_fold_and_snapshot_never_take_the_per_value_check(monkeypatch):
    # Engine results pass the validator's whole-dict check; the per-value loop
    # of _summed is only its error path, and a clean line never takes it.
    model = golden_model("ring")
    sources = golden_sources("ring", model, 50)
    start = FusionState.initial(model)
    calls = []
    summed = mass_module._summed
    monkeypatch.setattr(mass_module, "_summed", lambda *args: calls.append(1) or summed(*args))
    state = start.fold(sources)
    snapshots = [state.snapshot(rule) for rule in Rule]
    assert len(snapshots) == 8 and state.source_count == 50
    assert calls == []


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
