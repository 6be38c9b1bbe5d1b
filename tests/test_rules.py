"""Conjunctive combination and the transfer-operator catalog."""

import gc
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    combine2,
    deviation,
    sdli2,
    vbf,
)
from evfuse.engine import oracle_conjunctive
from evfuse.mass import _layout
from evfuse.rules import (
    apply_transfer,
    conjunctive,
    transfer_dempster,
    transfer_sdli,
    transfer_smets,
    transfer_union,
    transfer_yager,
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
    GOLDEN_ATOMS,
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
    ref_textbook_union,
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


def random_source(rng, model, pool, width=None):
    props = rng.sample(pool, width or rng.randint(1, len(pool) - 1))
    weights = [rng.uniform(0.05, 1.0) for _ in props]
    total = ordered_sum(weights)
    return MassFunction(model, [(p, w / total) for p, w in zip(props, weights)])


def distinct_pool(rng, model, size):
    # up to ``size`` distinct non-empty propositions, fewer where the model's
    # draw has fewer (2 atoms, or exclusive models on 3)
    pool = {}
    for _ in range(50 * size):
        p = random_prop(rng, model)
        if not model.is_empty(p):
            pool.setdefault(p.bits, p)
            if len(pool) == size:
                break
    return list(pool.values())


# the focal sets a product kernel unrolls; wider sources take the tail loop
W = rules._UNROLLED


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
    # the kernel's widths: one focal set, W unrolled, and W + 1 to W + 3 past them
    pool = distinct_pool(rng, model, W + 3)
    assert len(pool) == W + 3 or n <= 3
    for width in (1, W, W + 1, W + 2, W + 3):
        if width <= len(pool):
            wide = random_source(rng, model, pool, width)
            assert len(wide) == width
            for x in (a, abc, wide):
                assert_same_terms(conjunctive(x, wide), ref_conjunctive(x, wide))


KERNEL_FILE = "<evfuse.rules kernel "
# a fresh interpreter's live kernels after importing the library and the command line
FRESH_KERNELS = f"""
import gc, sys
from types import FunctionType
sys.path.insert(0, sys.argv[1])
import evfuse, evfuse.cli
print(sum(isinstance(f, FunctionType) and f.__code__.co_filename.startswith({KERNEL_FILE!r})
          for f in gc.get_objects()))
"""


def test_the_product_builds_at_most_one_kernel_per_width(monkeypatch):
    built = {}
    product = rules._product

    def spy(width):
        kernel = product(width)
        built.setdefault(width, set()).add(kernel)
        return kernel

    monkeypatch.setattr(rules, "_product", spy)
    rng = random.Random("kernels")
    model = Model.free(Frame(tuple(f"H{i}" for i in range(6))))
    pool = distinct_pool(rng, model, 40)
    state = FusionState.initial(model).fuse(random_source(rng, model, pool, 3))
    for width in range(1, 41):
        for _ in range(2):  # two sources of one width
            state.fuse(random_source(rng, model, pool, width))
    # widths past W share the tail kernel, and each width keeps the kernel it built
    assert sorted(built) == list(range(1, W + 2))
    assert all(len(kernels) == 1 for kernels in built.values())
    assert {k.__code__.co_filename for (k,) in built.values()} == {
        f"{KERNEL_FILE}{width}>" for width in built}
    live = [f for f in gc.get_objects()
            if isinstance(f, FunctionType) and f.__code__.co_filename.startswith(KERNEL_FILE)]
    assert len(live) <= W + 1
    src = Path(rules.__file__).resolve().parent.parent
    fresh = subprocess.run([sys.executable, "-I", "-c", FRESH_KERNELS, str(src)],
                           capture_output=True, encoding="utf-8", check=True)
    assert fresh.stdout.split() == ["0"]  # importing compiles no kernel


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
# every term of this product conflicts, yet its float conflict sums to 1 - 2**-53
@example(1354854)
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
    # Dempster is defined exactly when some mass is kept; conflict_mass() < 1.0
    # can hold by rounding when none is
    if any(not model.is_empty(p) for p, _ in r.items()):
        outputs.append(transfer_dempster(r))
    else:
        with pytest.raises(TotalConflictError):
            transfer_dempster(r)
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
    out = transfer_sdli(conjunctive(m1, m2), FusionState.initial(m1.model).fold([m1, m2]).columns)
    assert_masses(out, SDLI_12, tol=1e-6)
    assert_masses(out, SDLI_12_EXACT, tol=1e-12)


def test_sdli_three_source_fixture(m1, m2, m3):
    r = conjunctive(conjunctive(m1, m2), m3)
    out = transfer_sdli(r, FusionState.initial(m1.model).fold([m1, m2, m3]).columns)
    assert_masses(out, SDLI_123, tol=1e-6)
    assert_masses(out, SDLI_123_EXACT, tol=1e-12)


def test_sdli_conflict_free_unchanged(exclusive, frame):
    a = MassFunction(exclusive, {frame.parse("A"): 0.7, frame.parse("A|B"): 0.3})
    r = conjunctive(a, vbf(exclusive))
    out = transfer_sdli(r, FusionState.initial(exclusive).fold([a, vbf(exclusive)]).columns)
    assert deviation(out, a) <= 1e-15


def test_sdli_zero_column_fallback(exclusive, frame):
    # no party of A&B carries any column mass: fall back to the union
    r = result_from_rows(exclusive, {"A&B": 0.4, "C": 0.6})
    cols = ColumnSums(exclusive, {frame.parse("C"): 2.0}, 2)
    out = transfer_sdli(r, cols)
    assert_masses(out, {"A|B": 0.4, "C": 0.6}, tol=1e-12)


def test_sdli_parties_with_partial_columns(exclusive, frame):
    # only one party has column mass: it takes the whole transfer
    r = result_from_rows(exclusive, {"A&B": 0.5, "A": 0.5})
    cols = ColumnSums(exclusive, {frame.parse("A"): 1.3}, 2)
    out = transfer_sdli(r, cols)
    assert_masses(out, {"A": 1.0}, tol=1e-12)


def test_sdli_sends_mass_to_a_model_empty_column_key():
    # column sums accept any proposition on the frame, as add of a stored
    # product must; a model-empty party that is a column key is weighed, and
    # the mass it takes fails validation, while one that is not a key falls
    # back to the union route, here total ignorance
    frame = Frame(("A", "B", "C"))
    model = Model(frame, frame.atom("C").bits)
    a, c = frame.atom("A"), frame.atom("C")
    product = MassFunction(model, {a: 0.5, c: 0.5}, allow_conflict=True)
    with pytest.raises(ValidationError, match="^focal element C is empty under the model$"):
        transfer_sdli(product, ColumnSums(model, {c: 1, a: 1}, 2))
    out = transfer_sdli(product, ColumnSums(model, {a: 1}, 1))
    assert as_text_dict(out) == {"A": 0.5, "A|B|C": 0.5}


# Every rule's float.hex bits on one stored product that reaches each
# fallback of the transfer loop.  Under the model below, atom A and B&C are
# empty.  The product holds a void term, never split, though ∅ has a column
# total (as when column sums add an open-world result); A, whose atom union
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


def test_sdli2_refuses_a_model_empty_key_from_a_conflicting_source():
    # a public source may hold conflict; sdli2 still refuses a result that puts
    # mass on C, which the model makes empty
    frame = Frame(("A", "B", "C"))
    model = Model(frame, frame.atom("C").bits)
    a, b, c = frame.atom("A"), frame.atom("B"), frame.atom("C")
    conflicting = MassFunction(model, {c: 0.5, a: 0.5}, allow_conflict=True)
    with pytest.raises(ValidationError, match="^focal element C is empty under the model$"):
        sdli2(conflicting, MassFunction(model, {a | b: 0.4, a: 0.6}))


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
    routed = transfer_sdli(conjunctive(a, b), FusionState.initial(model).fold([a, b]).columns)
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
    routed = transfer_sdli(conjunctive(a, b), FusionState.initial(model).fold([a, b]).columns)
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


# Past two sources the union rules route a conflicting term to the union of
# the atoms of its meet, not to the union of the focal sets that made it:
# the textbook rule is not neutral to a vacuous source, and the stored state
# keeps only the meet.

UNION_RULES = (Rule.DUBOIS_PRADE, Rule.DSM_HYBRID)
UNION_THREE = ({"A": 0.5, "A|B|C": 0.5}, {"A|B": 0.5, "A|B|C": 0.5}, {"C": 0.5, "A|B|C": 0.5})
UNION_TWO = ({"A": 0.6, "B": 0.4}, {"B": 0.5, "C": 0.5})


def test_union_rules_past_two_sources_route_by_the_atoms_of_the_meet(exclusive):
    # (A, A|B|C, C) meets in A&C, whose atoms' union is A|C, not A|B|C
    state = FusionState.initial(exclusive).fold(
        [mass_from_rows(exclusive, rows) for rows in UNION_THREE])
    for rule in UNION_RULES:
        assert as_text_dict(state.snapshot(rule)) == {
            "A": 0.25, "A|B": 0.125, "C": 0.125, "A|C": 0.25, "A|B|C": 0.25}


def test_the_textbook_union_rule_routes_by_the_union_of_the_focal_sets(exclusive):
    sources = [mass_from_rows(exclusive, rows) for rows in UNION_THREE]
    eighth = Fraction(1, 8)
    assert ref_textbook_union(exclusive, sources) == {
        frozenset("A"): 2 * eighth, frozenset("AB"): eighth, frozenset("C"): eighth,
        frozenset("ABC"): 4 * eighth}


def test_the_textbook_union_rule_is_not_neutral_to_a_vacuous_source(exclusive):
    sources = [mass_from_rows(exclusive, rows) for rows in UNION_TWO]
    two = ref_textbook_union(exclusive, sources)
    assert {"".join(sorted(s)): float(v) for s, v in two.items()} == {
        "B": 0.2, "AB": 0.3, "AC": 0.3, "BC": 0.2}
    # the vacuous source moves every conflicting pair's mass, .8, to A|B|C
    moved = ref_textbook_union(exclusive, sources + [vbf(exclusive)])
    conflict = two[frozenset("AB")] + two[frozenset("AC")] + two[frozenset("BC")]
    assert moved == {frozenset("B"): two[frozenset("B")], frozenset("ABC"): conflict}
    assert float(conflict) == pytest.approx(0.8, abs=1e-15)
    # the engine's snapshot is the textbook two-source answer, and a vacuous
    # source leaves it bit for bit as it was
    state = FusionState.initial(exclusive).fold(sources)
    for rule in UNION_RULES:
        before = state.snapshot(rule)
        assert _by_atom_set(before) == pytest.approx(
            {s: float(v) for s, v in two.items()}, abs=SHAFER_BOUND)
        after = state.fuse(vbf(exclusive)).snapshot(rule)
        assert [(p.bits, v.hex()) for p, v in after.items()] == [
            (p.bits, v.hex()) for p, v in before.items()]


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
    # sdli2, the n-way oracle and the power-set references are what the
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
            exact = ref_textbook_union(exclusive, lines[1][i:i + 3])
            out.append(sorted((sorted(s), str(v)) for s, v in exact.items()))
        return out

    want = digests()

    def broken(*args, **kwargs):
        raise AssertionError("a reference called a kernel routine")

    for owner, name in ((rules, "conjunctive"), (engine, "conjunctive"), (rules, "_redistribute"),
                        (rules, "_product"), (rules, "_plan"), (ColumnSums, "add"),
                        (Frame, "_route")):
        monkeypatch.setattr(owner, name, broken)
    with pytest.raises(AssertionError, match="kernel routine"):
        combine2(Rule.SDLI, *lines[1][:2])
    assert digests() == want


# routing plans ------------------------------------------------------------------------
# _redistribute plans each stored key layout once and replays the plan; the copy
# below routes every term afresh on every call, as the loop did before plans.


def redistribute_per_step(result: MassFunction, target=None, weights=None) -> MassFunction:
    """Send each conflicting term's mass to ``target``, kept as conflict only when
    that is the empty mask, or with none to the union of its atoms: total ignorance
    when the term is void or that union is empty.  ``weights``, ``{mask: weight}``,
    split a non-void term first over its conflict parties by weight, if any has one."""
    frame, visible = result.model.frame, ~result.model.constrained
    out = {bits: v for bits, v in result._masses.items() if bits & visible}
    for bits, v in result._masses.items():
        if bits & visible:
            continue
        if (to := target) is None:
            parties, to = frame._route(bits)
            total = 0  # the party weights, added left to right as ordered_sum does
            if weights is not None and bits:
                for g in parties:
                    total += weights.get(g, 0.0)
            if total > 0.0:
                for g in parties:
                    if w := weights.get(g, 0.0):
                        out[g] = out.get(g, 0.0) + v * (w / total)
                continue
            if not to & visible:
                to = frame.full_bits
        out[to] = out.get(to, 0.0) + v
    return MassFunction._of_masks(result.model, out, _layout(result.model, out, target == 0))


ROUTED = {Rule.SMETS: "smets", Rule.YAGER: "yager", Rule.DUBOIS_PRADE: "union",
          Rule.DSM_HYBRID: "union", Rule.SDLI: "sdli"}


def _per_step(rule, product, columns):
    if rule is Rule.SMETS:
        return redistribute_per_step(product, 0)
    if rule is Rule.YAGER:
        return redistribute_per_step(product, product.model.frame.full_bits)
    if rule is Rule.SDLI:
        return redistribute_per_step(product, weights=columns._masses)
    return redistribute_per_step(product)


def _bits(transfer, *args):
    # the keys in order with each value's float.hex, or the error raised
    try:
        return [(bits, v.hex()) for bits, v in transfer(*args)._masses.items()]
    except ValidationError as exc:
        return str(exc)


@st.composite
def planned_calls(draw):
    """Routed snapshots on one 2-4-atom frame, in any interleaving.  Two models,
    each free, exclusive, excluding atom pairs or emptying one atom, share two
    key layouts (the void term allowed): per model three stored products, the
    first two on one layout.  Per model three column sums, one weighing a set of
    unions of atoms, one the rest and one another set of as many unions, so that
    each snapshot, taken under all three in a drawn order, flips which parties
    weigh, or keeps their number and changes the set."""
    n = draw(st.integers(2, 4))
    frame = Frame(GOLDEN_ATOMS[:n])
    atom = st.integers(0, n - 1)
    models = []
    for _ in range(2):
        kind = draw(st.sampled_from(("free", "exclusive", "pairs", "empty atom")))
        if kind == "pairs":
            pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                  min_size=1, max_size=n, unique=True))
            models.append(Model.with_exclusions(frame, pairs))
        elif kind == "empty atom":
            models.append(Model(frame, frame.atom(draw(atom)).bits))
        else:
            models.append(Model.free(frame) if kind == "free" else Model.exclusive(frame))

    def term():
        p = frame.empty()
        if draw(st.integers(0, 5)):  # else the void term
            for _ in range(draw(st.integers(1, 3))):
                meet = frame.total_ignorance()
                for _ in range(draw(st.integers(1, 3))):
                    meet = meet & frame.atom(draw(atom))
                p = p | meet
        return p

    def weighed(props):
        return {p: draw(st.integers(1, 20)) for p in props}

    def product(model, props):
        weights = weighed(props)
        total = sum(weights.values())
        return MassFunction(model, [(p, w / total) for p, w in weights.items()],
                            allow_conflict=True)

    layouts = [[term() for _ in range(draw(st.integers(1, 8)))] for _ in range(2)]
    unions = [frame.parse("|".join(GOLDEN_ATOMS[i] for i in range(n) if mask >> i & 1))
              for mask in range(1, 1 << n)]
    weighing = set(draw(st.lists(st.sampled_from(unions), unique=True)))
    others = set(draw(st.lists(st.sampled_from(unions), min_size=len(weighing),
                               max_size=len(weighing), unique=True)))
    products, columns = [], []
    for model in models:
        products.append([product(model, layouts[0]), product(model, layouts[0]),
                         product(model, layouts[1])])
        columns.append([ColumnSums(model, weighed(props), 2) for props in (
            [u for u in unions if u in weighing], [u for u in unions if u not in weighing],
            [u for u in unions if u in others])])
    calls = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                    st.sampled_from(list(ROUTED)), st.permutations(range(3))),
                          min_size=1, max_size=10))
    return [(rule, products[m][p], columns[m][c]) for m, p, rule, order in calls
            for c in order]


@settings(max_examples=300, deadline=None)
@given(planned_calls())
def test_planned_routing_matches_the_per_step_loop_bit_for_bit(calls):
    for rule, product, columns in calls:
        assert _bits(apply_transfer, rule, product, columns) == _bits(
            _per_step, rule, product, columns)


def test_a_frame_keeps_the_last_plan_per_constraint_and_transfer():
    frame = Frame(GOLDEN_ATOMS)
    exclusive, ring = (Model(frame, golden_model(kind).constrained)
                       for kind in ("exclusive", "ring"))
    sources = golden_sources("exclusive", exclusive, 3)
    state = FusionState.initial(exclusive).fold(sources[:2])
    plans = frame._plans

    def routed(product, columns):
        # an sdli snapshot, held to the per-step loop; the one plan it leaves
        assert _bits(transfer_sdli, product, columns) == _bits(
            redistribute_per_step, product, None, columns._masses)
        (plan,) = plans.values()
        return plan

    first = routed(state.accumulator, state.columns)
    assert routed(state.accumulator, state.columns) is first  # a hit
    later = state.fuse(sources[2])
    assert tuple(later.accumulator._masses) != first[0]
    grown = routed(later.accumulator, later.columns)  # a new layout replaces the plan
    assert grown is not first and grown[0] == tuple(later.accumulator._masses)
    # the same column keys with other totals: a hit
    sums = later.columns.sums
    retotalled = ColumnSums(exclusive, {p: 2 * v + 1 for p, v in sums.items()}, 3)
    assert routed(later.accumulator, retotalled) is grown
    # as many column keys, one of them another: a rebuild, held to the per-step loop
    assert frame.parse("A").bits in grown[2]  # A weighs under the plan it replaces
    swapped = dict(sums)
    del swapped[frame.parse("A")]
    assert frame.parse("B|C|D|E") not in swapped
    swapped[frame.parse("B|C|D|E")] = 1.0
    assert routed(later.accumulator, ColumnSums(exclusive, swapped, 3)) is not grown
    # the same layout with no party weighing: every term falls back to its union
    assert routed(later.accumulator, ColumnSums.empty(exclusive)) is not grown
    ring_state = FusionState.initial(ring).fold(golden_sources("ring", ring, 3))
    for rule in ROUTED:
        for s in (later, ring_state):
            assert _bits(apply_transfer, rule, s.accumulator, s.columns) == _bits(
                _per_step, rule, s.accumulator, s.columns)
    # one plan per model and transfer; dubois_prade and dsm_hybrid share theirs
    assert len(plans) == 2 * len(set(ROUTED.values()))


def test_a_long_stream_keeps_one_plan_per_constraint_and_transfer():
    # the benchmark's stream: all 8 rules, one model each, a snapshot after every source
    frame = Frame(GOLDEN_ATOMS)
    kinds = {Rule.CONJUNCTIVE: "exclusive", Rule.DEMPSTER: "exclusive", Rule.SMETS: "ring",
             Rule.YAGER: "ring", Rule.DUBOIS_PRADE: "exclusive", Rule.DSM_CLASSIC: "free",
             Rule.DSM_HYBRID: "ring", Rule.SDLI: "exclusive"}
    used = set()
    for rule, kind in kinds.items():
        model = Model(frame, golden_model(kind).constrained)
        state = FusionState.initial(model)
        for source in golden_sources(kind, model, 300):
            state = state.fuse(source)
            state.snapshot(rule)
        if rule in ROUTED:
            used.add((kind, ROUTED[rule]))
    assert len(frame._plans) == len(used) == 5


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
