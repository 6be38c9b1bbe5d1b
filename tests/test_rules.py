"""Conjunctive combination and the transfer-operator catalog."""

import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from evfuse import engine, rules
from evfuse.cli import _closed_form_applies
from evfuse import (
    ColumnSums,
    Frame,
    FusionState,
    MassFunction,
    Model,
    Rule,
    TotalConflictError,
    ValidationError,
    apply_transfer,
    column_sums,
    combine2,
    conjunctive,
    deviation,
    oracle_conjunctive,
    sdli2,
    transfer_dempster,
    transfer_sdli,
    transfer_smets,
    transfer_union,
    transfer_yager,
    vbf,
)

from support import (
    CONJ_12,
    CONJ_123,
    CONJ_23,
    CONFLICT_12,
    DEMPSTER_12,
    SDLI_12,
    SDLI_12_EXACT,
    SDLI_123,
    SDLI_123_EXACT,
    SMETS_12,
    UNION_12,
    UNION_123,
    YAGER_12,
    as_text_dict,
    assert_masses,
    atom_set,
    golden_model,
    golden_sources,
    mass_from_rows,
    ordered_sum,
    random_mass,
    random_model,
    random_prop,
    random_sources,
    ref_conjunctive,
    ref_shafer,
)


def result_from_rows(model, rows):
    frame = model.frame
    return MassFunction(
        model, {frame.parse(expr): v for expr, v in rows.items()}, allow_conflict=True
    )


# conjunctive stage -----------------------------------------------------------

def test_conjunctive_two_sources(m1, m2):
    assert_masses(conjunctive(m1, m2), CONJ_12)


def test_conjunctive_fold_matches_reference(m1, m2, m3):
    assert_masses(conjunctive(conjunctive(m1, m2), m3), CONJ_123)
    assert_masses(conjunctive(m2, m3), CONJ_23)


def test_conjunctive_source_count(m1, m2, m3, exclusive):
    assert FusionState.initial(exclusive).fold([m1, m2, m3]).source_count == 3


def test_conjunctive_vbf_neutral(m1, exclusive):
    r = conjunctive(m1, vbf(exclusive))
    assert deviation(r, m1) <= 1e-15


def test_conjunctive_model_mismatch(m1, free, frame):
    other = MassFunction(free, {frame.parse("A"): 1.0})
    with pytest.raises(ValidationError):
        conjunctive(m1, other)


def test_conjunctive_keys_true_empty_as_empty(exclusive, frame):
    # feeding an open-world assignment back in keeps its ∅ share on ∅
    open_world = MassFunction(
        exclusive, {frame.empty(): 0.5, frame.parse("A"): 0.5}, allow_conflict=True
    )
    certain = MassFunction(exclusive, {frame.parse("A"): 1.0})
    r = conjunctive(open_world, certain)
    assert {p.text(): v for p, v in r.items()} == {"∅": 0.5, "A": 0.5}
    assert_masses(transfer_smets(r), {"∅": 0.5, "A": 0.5}, tol=1e-12)
    assert_masses(transfer_yager(r), {"A|B|C": 0.5, "A": 0.5}, tol=1e-12)


def test_result_validation(exclusive, frame):
    with pytest.raises(ValidationError, match="sum"):
        MassFunction(exclusive, {frame.parse("A"): 0.4}, allow_conflict=True)
    with pytest.raises(ValidationError, match="negative"):
        MassFunction(
            exclusive, {frame.parse("A"): 1.2, frame.parse("B"): -0.2}, allow_conflict=True
        )


@st.composite
def two_random_sources(draw):
    seed = draw(st.integers(0, 10_000_000))
    rng = random.Random(seed)
    model = random_model(rng)
    return random_mass(rng, model), random_mass(rng, model)


@given(two_random_sources())
def test_conjunctive_commutative(pair):
    a, b = pair
    ab, ba = conjunctive(a, b), conjunctive(b, a)
    assert set(ab.terms) == set(ba.terms)
    assert deviation(ab, ba) <= 1e-12


@given(st.integers(0, 10_000_000))
def test_conjunctive_associative(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    a, b, c = (random_mass(rng, model) for _ in range(3))
    left = conjunctive(conjunctive(a, b), c)
    right = conjunctive(a, conjunctive(b, c))
    assert deviation(left, right) <= 1e-12


# the mask-keyed product against the per-Proposition reference -------------

def assert_same_terms(result, want):
    # the same keys in the same order, and bit-equal masses
    assert list(result.terms.items()) == list(want.items())


def ring_model(frame):
    return Model.with_exclusions(frame, [(i, (i + 1) % frame.n) for i in range(frame.n)])


def random_pool(rng, model, size):
    # total ignorance and non-empty random propositions; sources drawing
    # from one pool share focal elements, so their products merge
    pool = [model.frame.total_ignorance()]
    while len(pool) < size:
        p = random_prop(rng, model)
        if not model.is_empty(p):
            pool.append(p)
    return pool


def random_source(rng, model, pool):
    props = rng.sample(pool, rng.randint(1, len(pool) - 1))
    weights = [rng.uniform(0.05, 1.0) for _ in props]
    total = ordered_sum(weights)
    return MassFunction(model, [(p, w / total) for p, w in zip(props, weights)])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
@pytest.mark.parametrize("build", [Model.free, Model.exclusive, ring_model],
                         ids=["free", "exclusive", "ring"])
def test_conjunctive_matches_reference(build, n):
    rng = random.Random(f"conjunctive/{n}")
    model = build(Frame(tuple(f"H{i}" for i in range(n))))
    merged = 0
    for _ in range(4):
        pool = random_pool(rng, model, 4 if n == 16 else 7)
        a, b, c, d = (random_source(rng, model, pool) for _ in range(4))
        ab = conjunctive(a, b)
        abc = conjunctive(ab, c)
        for x, y in [(a, b), (ab, c), (abc, d)]:
            want = ref_conjunctive(x, y)
            assert_same_terms(conjunctive(x, y), want)
            merged += len(want) < len(x.items()) * len(y.items())
    assert merged  # some products landed on one key


def test_conjunctive_merges_products_on_one_key(exclusive, frame):
    a = mass_from_rows(exclusive, {"A": 0.5, "A|B": 0.5})
    b = mass_from_rows(exclusive, {"A": 0.5, "A|C": 0.5})
    # three of the four products land on A
    assert as_text_dict(conjunctive(a, b)) == {"A": 0.75, "A|B&C": 0.25}
    assert_same_terms(conjunctive(a, b), ref_conjunctive(a, b))


def test_conjunctive_drops_underflowed_products(free, frame):
    a = MassFunction(free, [(frame.parse("A"), 1.0), (frame.parse("B"), 1e-200)])
    b = MassFunction(free, [(frame.parse("A"), 1.0), (frame.parse("C"), 1e-200)])
    r = conjunctive(a, b)
    # B&C gets 1e-400, which is 0.0 in floats, and is no focal element
    assert sorted(as_text_dict(r)) == ["A", "A&B", "A&C"]
    assert_same_terms(r, ref_conjunctive(a, b))


# conflict --------------------------------------------------------------------

def test_conflict_of_fixture(m1, m2):
    assert conjunctive(m1, m2).conflict_mass() == pytest.approx(CONFLICT_12, abs=1e-9)


def test_conflict_free_model(free, frame):
    a = MassFunction(free, {frame.parse("A"): 0.5, frame.parse("B"): 0.5})
    b = MassFunction(free, {frame.parse("A&B"): 1.0})
    assert conjunctive(a, b).conflict_mass() == 0.0


def test_conflict_total(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 1.0})
    b = MassFunction(exclusive, {frame.parse("B"): 1.0})
    assert conjunctive(a, b).conflict_mass() == pytest.approx(1.0, abs=1e-12)


# simple transfers --------------------------------------------------------------

def test_dempster_fixture(m1, m2, exclusive):
    assert_masses(transfer_dempster(conjunctive(m1, m2)), DEMPSTER_12)


def test_dempster_conflict_free_unchanged(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 0.7, frame.parse("A|B"): 0.3})
    r = conjunctive(a, vbf(exclusive))
    assert deviation(transfer_dempster(r), a) <= 1e-15


def test_dempster_total_conflict(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 1.0})
    b = MassFunction(exclusive, {frame.parse("B"): 1.0})
    with pytest.raises(TotalConflictError):
        transfer_dempster(conjunctive(a, b))


def test_smets_fixture(m1, m2):
    assert_masses(transfer_smets(conjunctive(m1, m2)), SMETS_12)


def test_smets_total_conflict(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 1.0})
    b = MassFunction(exclusive, {frame.parse("B"): 1.0})
    assert_masses(transfer_smets(conjunctive(a, b)), {"∅": 1.0})


def test_yager_fixture(m1, m2):
    assert_masses(transfer_yager(conjunctive(m1, m2)), YAGER_12)


def test_yager_total_conflict(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 1.0})
    b = MassFunction(exclusive, {frame.parse("B"): 1.0})
    assert_masses(transfer_yager(conjunctive(a, b)), {"A|B|C": 1.0})


def test_union_transfer_fixtures(m1, m2, m3, exclusive):
    assert_masses(transfer_union(conjunctive(m1, m2)), UNION_12)
    assert_masses(transfer_union(conjunctive(conjunctive(m1, m2), m3)), UNION_123)


def test_transfers_keep_nonconflicting_terms(m1, m2, exclusive, frame):
    r = conjunctive(m1, m2)
    smets = transfer_smets(r)
    dempster = transfer_dempster(r)
    k = r.conflict_mass()
    for p, v in r.terms.items():
        if exclusive.is_empty(p):
            continue
        assert smets.mass(p) == v  # unscaled
        assert dempster.mass(p) == pytest.approx(v / (1.0 - k), abs=1e-15)


@given(st.integers(0, 10_000_000))
def test_transfer_mass_conservation(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    r = conjunctive(random_mass(rng, model), random_mass(rng, model))
    outputs = [
        transfer_smets(r),
        transfer_yager(r),
        transfer_union(r),
        transfer_sdli(r, ColumnSums.empty(model)),
    ]
    if r.conflict_mass() < 1.0:
        outputs.append(transfer_dempster(r))
    for out in outputs:
        assert sum(v for _, v in out.items()) == pytest.approx(1.0, abs=1e-9)


# union transfer against a pair-provenance oracle ---------------------------------

def _dubois_prade_pairwise(a: MassFunction, b: MassFunction) -> dict:
    """Independent oracle: track which product each pair (X, Y) lands on."""
    model = a.model
    out = {}
    for x, mx in a.items():
        for y, my in b.items():
            z = x & y
            target = (x | y) if model.is_empty(z) else z
            if model.is_empty(target):
                target = model.frame.total_ignorance()
            out[target] = out.get(target, 0.0) + mx * my
    return out


def test_union_transfer_equals_pair_oracle_exhaustive():
    # every pair of certain sources over unions of atoms, n = 2 and 3
    for names in (("A", "B"), ("A", "B", "C")):
        frame = Frame(names)
        model = Model.exclusive(frame)
        props = []
        for mask in range(1, 1 << frame.n):
            p = frame.empty()
            for i in range(frame.n):
                if mask >> i & 1:
                    p = p | frame.atom(i)
            props.append(p)
        for x in props:
            for y in props:
                a = MassFunction(model, {x: 1.0})
                b = MassFunction(model, {y: 1.0})
                got = transfer_union(conjunctive(a, b))
                want = _dubois_prade_pairwise(a, b)
                assert got.terms.keys() == want.keys()
                for p, v in want.items():
                    assert got.mass(p) == pytest.approx(v, abs=1e-12)


def test_union_transfer_equals_pair_oracle_random():
    # focal sets are unions of atoms, so every pair is in eq7's scope; each
    # pair of sources is taken under the exclusive, the free and a drawn
    # pair-exclusion model
    rng = random.Random(4242)
    frame = Frame(("A", "B", "C"))
    exclusive = Model.exclusive(frame)
    for _ in range(200):
        a, b = random_mass(rng, exclusive), random_mass(rng, exclusive)
        for model in (exclusive, Model.free(frame), random_model(rng, 3, kinds=("pairs",))):
            x, y = MassFunction(model, a.items()), MassFunction(model, b.items())
            got = transfer_union(conjunctive(x, y)).terms
            want = _dubois_prade_pairwise(x, y)
            keys = set(got) | set(want)
            for p in keys:
                assert got.get(p, 0.0) == pytest.approx(want.get(p, 0.0), abs=1e-12)


def test_union_transfer_keeps_only_the_meet_outside_eq7s_scope(exclusive):
    # B|A&C is no union of atoms.  Its meet with A, A&B|A&C, goes to the
    # union of its atoms, A|B|C; the textbook two-source rule sends the
    # pair to A | (B|A&C) = A|B.  The stored state keeps only the meet.
    m1 = mass_from_rows(exclusive, {"A": 0.6, "A|B|C": 0.4})
    m2 = mass_from_rows(exclusive, {"B|A&C": 0.7, "A|B|C": 0.3})
    routed = {"A": 0.18, "A&C|B": 0.28, "A|B|C": 0.54}
    assert_masses(transfer_union(conjunctive(m1, m2)), routed, tol=1e-12)
    state = FusionState.initial(exclusive).fold([m1, m2])
    for rule in (Rule.DUBOIS_PRADE, Rule.DSM_HYBRID):
        assert_masses(state.snapshot(rule), routed, tol=1e-12)
    assert_masses(_dubois_prade_pairwise(m1, m2),
                  {"A": 0.18, "A&C|B": 0.28, "A|B": 0.42, "A|B|C": 0.12}, tol=1e-12)


# proportional partial-conflict transfer ---------------------------------------------

def test_sdli_two_source_fixture(m1, m2):
    out = transfer_sdli(conjunctive(m1, m2), column_sums([m1, m2]))
    assert_masses(out, SDLI_12, tol=1e-6)
    assert_masses(out, SDLI_12_EXACT, tol=1e-12)


def test_sdli_three_source_fixture(m1, m2, m3):
    r = conjunctive(conjunctive(m1, m2), m3)
    out = transfer_sdli(r, column_sums([m1, m2, m3]))
    assert_masses(out, SDLI_123, tol=1e-6)
    assert_masses(out, SDLI_123_EXACT, tol=1e-12)


def test_sdli_conflict_free_unchanged(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 0.7, frame.parse("A|B"): 0.3})
    r = conjunctive(a, vbf(exclusive))
    out = transfer_sdli(r, column_sums([a, vbf(exclusive)]))
    assert deviation(out, a) <= 1e-15


def test_sdli_zero_column_fallback(exclusive, frame):
    # no party of A&B carries any column mass: fall back to the union
    r = result_from_rows(exclusive, {"A&B": 0.4, "C": 0.6})
    cols = ColumnSums(exclusive, {frame.parse("C"): 2.0}, 2)
    out = transfer_sdli(r, cols)
    assert_masses(out, {"A|B": 0.4, "C": 0.6}, tol=1e-12)


def test_sdli_transfer_needs_column_sums(exclusive):
    r = result_from_rows(exclusive, {"A&B": 0.4, "C": 0.6})
    with pytest.raises(ValidationError, match="^the sdli transfer needs column sums$"):
        transfer_sdli(r, None)


def test_sdli_parties_with_partial_columns(exclusive, frame):
    # only one party has column mass: it takes the whole transfer
    r = result_from_rows(exclusive, {"A&B": 0.5, "A": 0.5})
    cols = ColumnSums(exclusive, {frame.parse("A"): 1.3}, 2)
    out = transfer_sdli(r, cols)
    assert_masses(out, {"A": 1.0}, tol=1e-12)


# Every rule's float.hex bits on one stored product that reaches each
# fallback of the transfer loop.  Under the model below, atom A and B&C are
# empty.  The product holds a void term, never split, though ∅ has a column
# total (as when combine2 takes an open-world operand); A, whose atom union
# is empty; A&C, whose sdli parties {A} and {C} have no column mass; B&C,
# whose party {B} alone has some; and A&B|B&C, split 1.2 : 0.4 between B
# and A|C, where v * (w / total) and v * w / total round apart.
PINNED_TRANSFERS = {
    Rule.CONJUNCTIVE: {"∅": "0x1.999999999999ap-4", "A&C": "0x1.eb851eb851eb8p-4",
                       "A": "0x1.47ae147ae147bp-4", "B&C": "0x1.999999999999ap-4",
                       "A&B|B&C": "0x1.999999999999ap-3", "B": "0x1.0000000000000p-2",
                       "B|C": "0x1.3333333333333p-3"},
    Rule.DEMPSTER: {"B": "0x1.4000000000000p-1", "B|C": "0x1.7ffffffffffffp-2"},
    Rule.SMETS: {"∅": "0x1.3333333333334p-1", "B": "0x1.0000000000000p-2",
                 "B|C": "0x1.3333333333333p-3"},
    Rule.YAGER: {"B": "0x1.0000000000000p-2", "B|C": "0x1.3333333333333p-3",
                 "A|B|C": "0x1.3333333333334p-1"},
    Rule.DUBOIS_PRADE: {"B": "0x1.0000000000000p-2", "A|C": "0x1.eb851eb851eb8p-4",
                        "B|C": "0x1.0000000000000p-2", "A|B|C": "0x1.851eb851eb852p-2"},
    Rule.SDLI: {"B": "0x1.0000000000000p-1", "A|C": "0x1.5c28f5c28f5c2p-3",
                "B|C": "0x1.3333333333333p-3", "A|B|C": "0x1.70a3d70a3d70ap-3"},
}
PINNED_TRANSFERS[Rule.DSM_CLASSIC] = PINNED_TRANSFERS[Rule.CONJUNCTIVE]
PINNED_TRANSFERS[Rule.DSM_HYBRID] = PINNED_TRANSFERS[Rule.DUBOIS_PRADE]


@pytest.mark.parametrize("rule", list(Rule))
def test_transfer_fallbacks_keep_their_bits(rule):
    frame = Frame(("A", "B", "C"))
    model = Model(frame, frame.parse("A|B&C").bits)
    rows = {"B": 0.25, "B|C": 0.15, "A&B|B&C": 0.2, "B&C": 0.1, "A&C": 0.12, "A": 0.08}
    terms = {frame.parse(expr): v for expr, v in rows.items()}
    terms[frame.empty()] = 0.1
    product = MassFunction(model, terms, allow_conflict=True)
    columns = ColumnSums(model, {frame.parse("B"): 1.2, frame.parse("A|C"): 0.4,
                                 frame.empty(): 0.5}, 2)
    out = apply_transfer(rule, product, columns)
    assert {p.text(): v.hex() for p, v in out.items()} == PINNED_TRANSFERS[rule]


# closed-formula route ---------------------------------------------------------------

def test_sdli2_fixture(m1, m2):
    assert_masses(sdli2(m1, m2), SDLI_12, tol=1e-6)


def test_sdli2_vbf_neutral(m1, exclusive):
    assert deviation(sdli2(m1, vbf(exclusive)), m1) <= 1e-15


def test_sdli2_total_conflict_split():
    frame = Frame(("A", "B"))
    model = Model.exclusive(frame)
    a = MassFunction(model, {frame.atom("A"): 1.0})
    b = MassFunction(model, {frame.atom("B"): 1.0})
    assert_masses(sdli2(a, b), {"A": 0.5, "B": 0.5}, tol=1e-12)


def test_sdli2_model_mismatch(m1, free, frame):
    other = MassFunction(free, {frame.parse("A"): 1.0})
    with pytest.raises(ValidationError):
        sdli2(m1, other)


@settings(max_examples=150)
@given(st.integers(0, 10_000_000))
def test_sdli2_matches_transfer_route(seed):
    # within the closed form's scope, the one eq7 compares in
    rng = random.Random(seed)
    model = random_model(rng)
    a, b = random_mass(rng, model), random_mass(rng, model)
    assume(_closed_form_applies(model, a, b))
    direct = sdli2(a, b)
    routed = transfer_sdli(conjunctive(a, b), column_sums([a, b]))
    assert deviation(direct, routed) <= 1e-12


def test_sdli2_leaves_the_transfer_route_outside_the_closed_forms_scope():
    # with A excluded from B and from C, A meets A&B|C in nothing: sdli2
    # splits the product by the two columns, but the route splits it by its
    # conflict parties A and B|C, and no source put mass on B|C
    frame = Frame(("A", "B", "C"))
    model = Model.with_exclusions(frame, [(0, 1), (0, 2)])
    a = MassFunction(model, {frame.parse("A"): 1.0})
    b = MassFunction(model, {frame.parse("A&B|C"): 1.0})
    assert not _closed_form_applies(model, a, b)
    assert as_text_dict(sdli2(a, b)) == {"A": 0.5, "A&B|C": 0.5}
    routed = transfer_sdli(conjunctive(a, b), column_sums([a, b]))
    assert as_text_dict(routed) == {"A": 1.0}
    assert deviation(sdli2(a, b), routed) > 1e-12


# Shafer's model against the power set ------------------------------------------------
# On the exclusive model a snapshot key stands for the set of atoms whose
# singleton region it holds, so keys that name one set are merged, and a
# conflicting key names the empty set.  Bound stated before the first run:
# the float fold and transfer of at most 6 sources of at most 3 focal sets
# each drift from the exact answer by a few hundred units in the last
# place at most, far below 1e-12.

SHAFER_BOUND = 1e-12


def _by_atom_set(snapshot: MassFunction) -> dict:
    frame, out = snapshot.frame, {}
    for p, v in snapshot.items():
        s = atom_set(frame, p.bits)
        out[s] = out.get(s, 0.0) + v
    return out


def test_shafers_model_matches_the_power_set_reference():
    undefined = 0
    for seed in range(200):
        rng = random.Random(f"shafer/{seed}")
        model = random_model(rng, rng.randint(3, 5), kinds=("exclusive",))
        sources = random_sources(rng, model, rng.randint(2, 6))
        state = FusionState.initial(model).fold(sources)
        for rule in (Rule.DEMPSTER, Rule.SMETS, Rule.YAGER):
            want = ref_shafer(rule, model, sources)
            if want is None:
                undefined += 1
                with pytest.raises(TotalConflictError):
                    state.snapshot(rule)
                continue
            got = _by_atom_set(state.snapshot(rule))
            assert set(got) == set(want), (seed, rule)
            assert max(abs(got[s] - want[s]) for s in want) <= SHAFER_BOUND, (seed, rule)
    assert undefined  # the seeds reach Dempster's total conflict


def test_dubois_prade_matches_the_two_source_power_set_reference():
    # the same merge by atom set and the same bound as above, fixed before the first run
    routed = 0
    for seed in range(400):
        rng = random.Random(f"dubois-prade/{seed}")
        model = random_model(rng, rng.randint(3, 5), kinds=("exclusive",))
        sources = random_sources(rng, model, 2)
        state = FusionState.initial(model).fold(sources)
        routed += state.accumulator.conflict_mass() > 0.0
        for rule in (Rule.DUBOIS_PRADE, Rule.DSM_HYBRID):
            want = ref_shafer(rule, model, sources)
            got = _by_atom_set(state.snapshot(rule))
            assert set(got) == set(want), (seed, rule)
            assert max(abs(got[s] - want[s]) for s in want) <= SHAFER_BOUND, (seed, rule)
    assert routed  # the seeds reach pairs of focal sets with an empty meet


@pytest.mark.parametrize("count", [0, 1, 3])
def test_dubois_prade_reference_takes_exactly_two_sources(exclusive, m1, count):
    for rule in (Rule.DUBOIS_PRADE, Rule.DSM_HYBRID):
        with pytest.raises(ValueError, match="exactly two sources"):
            ref_shafer(rule, exclusive, [m1] * count)


def test_shafer_reference_covers_the_exclusive_model_only(free):
    with pytest.raises(ValueError, match="exclusive model only"):
        ref_shafer(Rule.DEMPSTER, free, [])


# Snapshot keys and sources are kept in unconstrained form, so one set can
# carry several names.  These pin the fix ROADMAP item 16 plans; when it
# lands they pass, and the strict markers fail until they are removed.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the B line prints as A&C|B, "
                                       "and mass() reads one spelling")
def test_dempster_names_the_set_it_puts_mass_on(exclusive, frame):
    a = mass_from_rows(exclusive, {"A|B": 0.5, "A|B|C": 0.5})
    b = mass_from_rows(exclusive, {"B|C": 0.5, "A|B|C": 0.5})
    assert combine2(Rule.DEMPSTER, a, b).mass(frame.parse("B")) == 0.25


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: a source is routed by its "
                                       "spelling, not by the set it names")
@pytest.mark.parametrize("rule", [Rule.DUBOIS_PRADE, Rule.DSM_HYBRID, Rule.SDLI])
def test_two_spellings_of_one_source_give_one_answer(exclusive, rule):
    # A&B|C is C under the exclusive model
    other = mass_from_rows(exclusive, {"A": 0.6, "A|B|C": 0.4})
    spelt = [mass_from_rows(exclusive, {first: 0.5, "A|B|C": 0.5}) for first in ("A&B|C", "C")]
    long, short = (as_text_dict(combine2(rule, m, other)) for m in spelt)
    assert long == pytest.approx(short, abs=1e-12)


def test_references_call_no_kernel_function(monkeypatch):
    # sdli2, the n-way oracle and the power-set reference are what the
    # kernel is held against, so they must give the same bits with every
    # kernel routine broken
    lines = [golden_sources(kind, golden_model(kind), 12) for kind in ("free", "exclusive", "ring")]

    def digests():
        out = []
        for sources in lines:
            for i in range(len(sources) - 2):
                for m in (sdli2(sources[i], sources[i + 1]), oracle_conjunctive(sources[i:i + 3])):
                    out.append([(p.bits, v.hex()) for p, v in m.items()])
        exclusive = golden_model("exclusive")
        for i in range(len(lines[1]) - 2):
            for rule in (Rule.DEMPSTER, Rule.SMETS, Rule.YAGER):
                exact = ref_shafer(rule, exclusive, lines[1][i:i + 3])
                out.append(sorted((sorted(s), str(v)) for s, v in exact.items()))
            for rule in (Rule.DUBOIS_PRADE, Rule.DSM_HYBRID):
                exact = ref_shafer(rule, exclusive, lines[1][i:i + 2])
                out.append(sorted((sorted(s), str(v)) for s, v in exact.items()))
        return out

    want = digests()

    def broken(*args, **kwargs):
        raise AssertionError("a reference called a kernel routine")

    for owner, name in ((rules, "conjunctive"), (engine, "conjunctive"), (rules, "_redistribute"),
                        (ColumnSums, "add"), (Frame, "_route")):
        monkeypatch.setattr(owner, name, broken)
    with pytest.raises(AssertionError, match="kernel routine"):
        combine2(Rule.SDLI, *lines[1][:2])
    assert digests() == want


# rule dispatch ------------------------------------------------------------------------

def test_combine2_union(m1, m2):
    assert_masses(combine2(Rule.DSM_HYBRID, m1, m2), UNION_12)
    assert_masses(combine2("dubois_prade", m1, m2), UNION_12)


def test_combine2_dempster(m1, m2):
    assert_masses(combine2(Rule.DEMPSTER, m1, m2), DEMPSTER_12)


def test_combine2_classic_returns_raw_product(m1, m2):
    out = combine2(Rule.DSM_CLASSIC, m1, m2)
    assert isinstance(out, MassFunction)
    assert_masses(out, CONJ_12)
    assert deviation(out, combine2(Rule.CONJUNCTIVE, m1, m2)) == 0.0
    assert all(isinstance(combine2(rule, m1, m2), MassFunction) for rule in Rule)


def test_combine2_sdli(m1, m2):
    assert_masses(combine2(Rule.SDLI, m1, m2), SDLI_12, tol=1e-6)


def test_combine2_unknown_rule(m1, m2):
    with pytest.raises(ValueError):
        combine2("murphy", m1, m2)


def test_rule_names_cover_catalog():
    assert {r.value for r in Rule} == {
        "conjunctive",
        "dempster",
        "smets",
        "yager",
        "dubois_prade",
        "dsm_classic",
        "dsm_hybrid",
        "sdli",
    }
