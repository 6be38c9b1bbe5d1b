"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints its own pass line with the measured
worst deviation where one applies.
"""

import json
import random
from itertools import permutations

import pytest

from evfuse import (
    FusionState,
    MassFunction,
    Rule,
    TotalConflictError,
    combine2,
    deviation,
    sdli2,
    vbf,
)
from evfuse.engine import oracle_conjunctive
from evfuse.rules import conjunctive, transfer_sdli, transfer_union
from evfuse.cli import main

from support import (
    CONJ_12,
    CONJ_123,
    SDLI_12,
    SDLI_123,
    UNION_12,
    UNION_123,
    UNION_1234,
    abc_model,
    as_text_dict,
    assert_masses,
    mass_from_rows,
    random_mass,
    random_model,
    random_sources,
    ROWS_M1,
    ROWS_M2,
    ROWS_M3,
    ROWS_M4,
)


def sources_abc():
    model = abc_model()
    return model, [
        mass_from_rows(model, rows) for rows in (ROWS_M1, ROWS_M2, ROWS_M3, ROWS_M4)
    ]


def fold(model, masses):
    state = FusionState.initial(model)
    for m in masses:
        state = state.fuse(m)
    return state


def report(number, label):
    print(f"criterion {number} ({label}): PASS")


def test_criterion_01_two_source_conjunctive_values():
    model, (m1, m2, _, _) = sources_abc()
    assert_masses(conjunctive(m1, m2), CONJ_12, tol=1e-9)
    report(1, "two-source conjunctive fixture")


def test_criterion_02_union_transfer_of_stored_result():
    model, (m1, m2, _, _) = sources_abc()
    assert_masses(transfer_union(conjunctive(m1, m2)), UNION_12, tol=1e-9)
    report(2, "union transfer fixture")


def test_criterion_03_streaming_and_batch_reproduce_three_source_values():
    model, (m1, m2, m3, _) = sources_abc()
    state = fold(model, [m1, m2, m3])
    assert_masses(state.accumulator, CONJ_123, tol=1e-9)
    assert_masses(state.snapshot(Rule.DSM_HYBRID), UNION_123, tol=1e-9)
    assert_masses(fold(model, [m1, m2, m3]).snapshot(Rule.DSM_HYBRID), UNION_123, tol=1e-9)
    other_grouping = fold(model, [m2, m3, m1]).snapshot(Rule.DSM_HYBRID)
    assert_masses(other_grouping, UNION_123, tol=1e-9)
    report(3, "streaming three-source fixture")


def test_criterion_04_fourth_source_markov_step():
    model, (m1, m2, m3, m4) = sources_abc()
    snap = fold(model, [m1, m2, m3]).fuse(m4).snapshot(Rule.DSM_HYBRID)
    assert_masses(snap, UNION_1234, tol=1e-9)
    assert snap.mass(model.frame.parse("A|C")) == 0.0
    batched = fold(model, [m1, m2, m3, m4]).snapshot(Rule.DSM_HYBRID)
    assert deviation(snap, batched) <= 1e-9
    report(4, "four-source markov step")


def test_criterion_05_proportional_transfer_two_sources():
    model, (m1, m2, _, _) = sources_abc()
    out = transfer_sdli(conjunctive(m1, m2), fold(model, [m1, m2]).columns)
    assert_masses(out, SDLI_12, tol=1e-6)
    report(5, "proportional transfer, two sources")


def test_criterion_06_proportional_transfer_three_sources_all_orders():
    model, (m1, m2, m3, _) = sources_abc()
    baseline = fold(model, [m1, m2, m3]).snapshot(Rule.SDLI)
    assert_masses(baseline, SDLI_123, tol=1e-6)
    worst = 0.0
    for order in permutations([m1, m2, m3]):
        worst = max(worst, deviation(fold(model, list(order)).snapshot(Rule.SDLI), baseline))
    assert worst <= 1e-9
    print(f"criterion 6 orderings worst deviation: {worst:.3e}")
    report(6, "proportional transfer, three sources")


def test_criterion_07_vacuous_source_neutrality():
    model, (m1, m2, _, _) = sources_abc()
    with_vbf = fold(model, [vbf(model), m1, m2]).snapshot(Rule.SDLI)
    plain = fold(model, [m1, m2]).snapshot(Rule.SDLI)
    assert deviation(with_vbf, plain) <= 1e-12
    assert_masses(with_vbf, SDLI_12, tol=1e-6)

    rng = random.Random(20240207)
    worst = 0.0
    for _ in range(200):
        rmodel = random_model(rng)
        sources = random_sources(rng, rmodel, rng.randint(1, 5))
        baseline = fold(rmodel, sources).snapshot(Rule.SDLI)
        padded = list(sources)
        for _ in range(rng.randint(1, 2)):
            padded.insert(rng.randint(0, len(padded)), vbf(rmodel))
        worst = max(worst, deviation(fold(rmodel, padded).snapshot(Rule.SDLI), baseline))
    assert worst <= 1e-12
    print(f"criterion 7 worst deviation: {worst:.3e}")
    report(7, "vacuous-source neutrality")


def test_criterion_08_closed_formula_matches_transfer_route():
    rng = random.Random(20240208)
    worst = 0.0
    for case in range(500):
        kind = "exclusive" if case % 2 == 0 else "free"
        model = random_model(rng, n=rng.randint(2, 4), kinds=(kind,))
        a, b = random_mass(rng, model), random_mass(rng, model)
        direct = sdli2(a, b)
        routed = transfer_sdli(conjunctive(a, b), fold(model, [a, b]).columns)
        worst = max(worst, deviation(direct, routed))
    assert worst <= 1e-12
    print(f"criterion 8 worst deviation: {worst:.3e}")
    report(8, "closed formula vs transfer route")


def test_criterion_09_accumulator_matches_direct_product_oracle():
    rng = random.Random(20240209)
    worst = 0.0
    for _ in range(300):
        model = random_model(rng, n=rng.randint(2, 4))
        sources = random_sources(rng, model, rng.randint(2, 5))
        state = FusionState.initial(model)
        for k, m in enumerate(sources, start=1):
            state = state.fuse(m)
            if k >= 2:
                worst = max(
                    worst, deviation(state.accumulator, oracle_conjunctive(sources[:k]))
                )
    assert worst <= 1e-12
    print(f"criterion 9 worst deviation: {worst:.3e}")
    report(9, "incremental accumulator vs oracle")


def test_criterion_10_snapshots_are_order_invariant_for_every_rule():
    rng = random.Random(20240210)
    worst = 0.0
    for _ in range(300):
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(2, 4))
        orders = list(permutations(range(len(sources))))
        if len(orders) > 6:
            orders = [orders[0], orders[-1]] + rng.sample(orders[1:-1], 4)
        states = []
        for order in orders:
            states.append(fold(model, [sources[i] for i in order]))
        for rule in Rule:
            base_snap = None
            base_error = False
            try:
                base_snap = states[0].snapshot(rule)
            except TotalConflictError:
                base_error = True
            for state in states[1:]:
                try:
                    snap = state.snapshot(rule)
                except TotalConflictError:
                    assert base_error
                    continue
                assert not base_error
                worst = max(worst, deviation(snap, base_snap))
    assert worst <= 1e-9
    print(f"criterion 10 worst deviation: {worst:.3e}")

    # negative control: chaining the transfer after every step diverges
    model, (m1, m2, m3, _) = sources_abc()
    chained = combine2(Rule.YAGER, combine2(Rule.YAGER, m1, m2), m3)
    engine = fold(model, [m1, m2, m3]).snapshot(Rule.YAGER)
    gap = deviation(chained, engine)
    assert gap > 1e-3
    print(f"criterion 10 negative-control gap: {gap:.3f}")
    report(10, "order invariance for every rule")


def test_criterion_11_lattice_laws_bit_exact_over_all_18_elements():
    from evfuse import Frame, Proposition

    frame = Frame(("A", "B", "C"))
    props = []
    for mask in range(1, 1 << 7):
        p = Proposition(frame, mask << 1)
        if p.is_up_closed():
            props.append(p)
    assert len(props) == 18
    for p in props:
        assert (p & p) == p and (p | p) == p
        for q in props:
            assert (p & q) == (q & p) and (p | q) == (q | p)
            assert (p & (p | q)) == p
            for r in props:
                assert ((p & q) & r) == (p & (q & r))
                assert ((p | q) | r) == (p | (q | r))
                assert (p & (q | r)) == ((p & q) | (p & r))
    report(11, "lattice laws over all 18 elements")


def test_criterion_12_total_conflict_guard_and_chained_consistency(tmp_path):
    doc = {
        "frame": ["A", "B"],
        "model": "exclusive",
        "rule": "dempster",
        "sources": [
            {"name": "s1", "masses": {"A": 1.0}},
            {"name": "s2", "masses": {"B": 1.0}},
        ],
    }
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["fuse", str(path)]) == 3

    def dempster_pair(a, b):
        model = a.model
        out = {}
        for x, mx in a.items():
            for y, my in b.items():
                z = x & y
                if not model.is_empty(z):
                    out[z] = out.get(z, 0.0) + mx * my
        total = sum(out.values())
        if total <= 0.0:
            raise TotalConflictError("undefined")
        return MassFunction(model, {p: v / total for p, v in out.items()})

    rng = random.Random(20240212)
    worst = 0.0
    done = 0
    while done < 300:
        model = random_model(rng)
        sources = random_sources(rng, model, rng.randint(2, 4))
        try:
            chained = sources[0]
            for m in sources[1:]:
                chained = dempster_pair(chained, m)
        except TotalConflictError:
            continue
        worst = max(worst, deviation(fold(model, sources).snapshot(Rule.DEMPSTER), chained))
        done += 1
    assert worst <= 1e-9
    print(f"criterion 12 worst deviation: {worst:.3e}")
    report(12, "total-conflict guard and chained consistency")
