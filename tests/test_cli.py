"""End-to-end command-line behavior: output bytes, exit codes, checks."""

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from evfuse import Frame, FusionState, MassFunction, Model, Rule, sdli2, vbf
from evfuse.cli import (
    CHECKS,
    Scenario,
    ScenarioError,
    _check_permutation,
    _check_vbf,
    _closed_form_applies,
    _json,
    _orderings,
    build_parser,
    cmd_fuse,
    cmd_stream,
    load_scenario,
    main,
    scenario_from_dict,
)
from evfuse.errors import TotalConflictError, ValidationError

from support import (
    SCENARIO_DIR,
    SDLI_12,
    UNION_12,
    UNION_123,
    UNION_1234,
    random_model,
    random_sources,
    ref_exact_snapshot,
    ref_exact_state,
    ref_minimal_minterms,
    ref_worst_refold,
)

THREE = str(SCENARIO_DIR / "three_sources.json")
FOUR = str(SCENARIO_DIR / "four_sources.json")
VBF_FIRST = str(SCENARIO_DIR / "vbf_first.json")
GOLDEN_SCENARIOS = SCENARIO_DIR.parent / "tests" / "golden" / "scenarios"
RING5 = str(GOLDEN_SCENARIOS / "ring5.json")
PRUNED3 = str(GOLDEN_SCENARIOS / "pruned3.json")

FUSE_THREE_TABLE = """\
rule: dsm_hybrid
conflict: 0.660000
A=0.318000
A|B=0.610000
A|B|C=0.050000
A|C=0.002000
B=0.020000
"""


# the JSON text of an int with more digits than CPython's default int-to-str limit (4300)
HUGE_INT = "1" + "0" * 5000


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def total_conflict_doc():
    return {
        "frame": ["A", "B"],
        "model": "exclusive",
        "rule": "dempster",
        "sources": [
            {"name": "s1", "masses": {"A": 1.0}},
            {"name": "s2", "masses": {"B": 1.0}},
        ],
    }


def pruned_doc():
    return {
        "frame": ["A", "B"],
        "model": "exclusive",
        "rule": "yager",
        "prune_epsilon": 0.05,
        "sources": [
            {"name": "s1", "masses": {"A": 0.9, "B": 0.1}},
            {"name": "s2", "masses": {"A": 0.9, "B": 0.1}},
            {"name": "s3", "masses": {"A": 0.5, "B": 0.5}},
        ],
    }


# fuse ---------------------------------------------------------------------------

def test_fuse_table_bytes(capsys):
    assert main(["fuse", THREE]) == 0
    assert capsys.readouterr().out == FUSE_THREE_TABLE


def test_fuse_deterministic(capsys):
    main(["fuse", FOUR, "--output", "json"])
    first = capsys.readouterr().out
    main(["fuse", FOUR, "--output", "json"])
    assert capsys.readouterr().out == first


def test_fuse_rule_override(capsys):
    assert main(["fuse", THREE, "--rule", "sdli"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rule: sdli"
    assert "A=0.716846" in out
    assert "B=0.265769" in out
    assert "A|C=0.017385" in out


def test_fuse_json_payload(capsys):
    assert main(["fuse", THREE, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rule"] == "dsm_hybrid"
    assert payload["conflict"] == pytest.approx(0.66, abs=1e-9)
    for key, want in UNION_123.items():
        assert payload["masses"][key] == pytest.approx(want, abs=1e-9)


def test_fuse_json_round_trips_as_source(capsys, tmp_path):
    main(["fuse", THREE, "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    scenario = load_scenario(THREE)
    frame = scenario.start.model.frame
    rebuilt = MassFunction(
        scenario.start.model,
        [(frame.parse(expr), v) for expr, v in payload["masses"].items()],
    )
    assert rebuilt.is_input_valid()


# JSON output is json.dumps(payload, ensure_ascii=False, indent=2), written
# by cli._json through json's C encoder.  Source names and keys reach it
# from any JSON string, lone surrogates included.
_AWKWARD = ['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "\U0001F600", "\ud800",
            "a\udfffb", "∅", "A&B|C", "", "\u2028"]
_text = st.one_of(
    st.sampled_from(_AWKWARD),
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=6),
)
_conflict = st.one_of(st.just(0), st.floats())
_masses = st.dictionaries(_text, st.one_of(st.floats(0.0, 1.0), st.just(0)), max_size=5)


@st.composite
def _payloads(draw):
    payload = {"rule": draw(st.sampled_from([r.value for r in Rule]))}
    if draw(st.booleans()):  # a stream document
        payload["steps"] = draw(st.lists(st.fixed_dictionaries(
            {"source": _text, "conflict": _conflict, "masses": _masses}), max_size=4))
    return {**payload, "conflict": draw(_conflict), "masses": draw(_masses)}


@settings(max_examples=100, deadline=None)
@given(_payloads())
def test_json_writer_matches_json_dumps(payload):
    assert _json(payload) == json.dumps(payload, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("command", ["fuse", "stream"])
def test_json_output_is_indented_json_dumps(capsys, tmp_path, command):
    doc = {"frame": ["A", "B", "C"], "model": "exclusive", "rule": "smets", "sources": [
        {"name": name, "masses": {"A": 0.5, "B|C": 0.5}} for name in _AWKWARD[:4]]}
    assert main([command, write_scenario(tmp_path, doc), "--output", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert "∅" in payload["masses"]
    if command == "stream":  # the first step has nothing to conflict with
        assert [s["source"] for s in payload["steps"]] == _AWKWARD[:4]
        assert '"conflict": 0,' in out and type(payload["steps"][0]["conflict"]) is int


def test_fuse_smets_output_flags_empty_set(capsys):
    assert main(["fuse", THREE, "--rule", "smets", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["masses"]["∅"] == pytest.approx(0.66, abs=1e-9)


def test_fuse_total_conflict_exit_code(capsys, tmp_path):
    path = write_scenario(tmp_path, total_conflict_doc())
    assert main(["fuse", path]) == 3
    assert "rule error" in capsys.readouterr().err


@pytest.mark.parametrize("count, expected", [(20, {"A": 0.5, "B": 0.5}), (41, {"A": 0.9, "B": 0.1})])
def test_fuse_dempster_long_alternating_stream(capsys, tmp_path, count, expected):
    # k reaches 1 - 1e-21 here; the kept masses still fix the exact answer
    doc = total_conflict_doc()
    doc["sources"] = [
        {"name": f"s{i + 1}", "masses": {"A": 0.9, "B": 0.1} if i % 2 == 0 else {"A": 0.1, "B": 0.9}}
        for i in range(count)
    ]
    path = write_scenario(tmp_path, doc)
    assert main(["fuse", path, "--output", "json"]) == 0
    masses = json.loads(capsys.readouterr().out)["masses"]
    assert masses.keys() == expected.keys()
    for expr, value in expected.items():
        assert masses[expr] == pytest.approx(value, rel=1e-12)


def test_fuse_sixteen_atom_sdli_matches_closed_formula(capsys, tmp_path):
    doc = {
        "frame": [f"s{i}" for i in range(16)],
        "model": "exclusive",
        "rule": "sdli",
        "sources": [
            {"name": "m1", "masses": {"s0": 0.5, "s1|s2": 0.3, "s3|s4|s15": 0.2}},
            {"name": "m2", "masses": {"s1": 0.6, "s0|s15": 0.25, "s7|s8|s9|s10": 0.15}},
        ],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["fuse", path, "--output", "json"]) == 0
    masses = json.loads(capsys.readouterr().out)["masses"]
    m1, m2 = load_scenario(path).masses
    want = {p.text(): v for p, v in sdli2(m1, m2).items()}
    assert masses.keys() == want.keys()
    for expr, value in want.items():
        assert masses[expr] == pytest.approx(value, abs=1e-12)


# stream -------------------------------------------------------------------------

def test_stream_steps_follow_fixture(capsys):
    assert main(["stream", FOUR, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["source"] for s in payload["steps"]] == ["m1", "m2", "m3", "m4"]
    expected = [
        {"A": 0.4, "B": 0.5, "A|C": 0.1},
        UNION_12,
        UNION_123,
        UNION_1234,
    ]
    conflicts = [0.0, 0.50, 0.66, 0.83]
    for step, want, k in zip(payload["steps"], expected, conflicts):
        assert step["conflict"] == pytest.approx(k, abs=1e-9)
        assert set(step["masses"]) == set(want)
        for key, value in want.items():
            assert step["masses"][key] == pytest.approx(value, abs=1e-9)


def test_stream_vbf_first_snapshot(capsys):
    assert main(["stream", VBF_FIRST]) == 0
    lines = capsys.readouterr().out.splitlines()
    tail = lines[lines.index("step 3: m2"):]
    assert tail == [
        "step 3: m2",
        "conflict: 0.500000",
        "A=0.603529",
        "A|C=0.056000",
        "B=0.340471",
    ]


def test_stream_final_equals_fuse(capsys):
    assert main(["stream", FOUR]) == 0
    stream_out = capsys.readouterr().out.splitlines()
    assert main(["fuse", FOUR]) == 0
    fuse_out = capsys.readouterr().out.splitlines()
    final_rows = stream_out[stream_out.index("step 4: m4") + 1:]
    assert final_rows == fuse_out[1:]  # conflict line plus the same rows


def test_stream_single_source(capsys, tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "frame": ["A", "B"],
            "model": "exclusive",
            "rule": "yager",
            "sources": [{"name": "only", "masses": {"A": 0.25, "B": 0.75}}],
        },
    )
    assert main(["stream", path]) == 0
    assert capsys.readouterr().out == (
        "rule: yager\nstep 1: only\nconflict: 0.000000\nA=0.250000\nB=0.750000\n"
    )


# verify -------------------------------------------------------------------------

def test_verify_all_checks_pass(capsys):
    assert main(["verify", THREE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 4
    assert [line.split()[1] for line in lines] == ["permutation", "markov", "vbf", "eq7"]


def test_verify_subset_of_checks(capsys):
    assert main(["verify", FOUR, "--checks", "markov,permutation"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[1] == "permutation"
    assert lines[1].split()[1] == "markov"


def test_verify_single_source_skips_markov_and_eq7(capsys, tmp_path):
    # one source has no prefix of two or more and no pair to compare
    doc = total_conflict_doc()
    doc["sources"] = doc["sources"][:1]
    assert main(["verify", write_scenario(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["SKIP", "SKIP", "PASS", "SKIP"]
    assert lines[1] == "SKIP markov" and lines[3] == "SKIP eq7"


def test_verify_unknown_check(capsys):
    assert main(["verify", THREE, "--checks", "markov,entropy"]) == 2
    assert "entropy" in capsys.readouterr().err


def test_verify_needs_at_least_one_check(capsys):
    assert main(["verify", THREE, "--checks", ","]) == 2
    assert capsys.readouterr().err == "error: --checks: need at least one check\n"


def test_verify_bad_trials(capsys):
    assert main(["verify", THREE, "--trials", "0"]) == 2


def test_verify_pruned_scenario_fails_permutation(capsys, tmp_path):
    # epsilon pruning is a documented approximation: dropping small terms
    # mid-stream makes the result depend on the source order
    path = write_scenario(tmp_path, pruned_doc())
    assert main(["verify", path, "--checks", "permutation"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL permutation")


def test_verify_seeded_random_scenario(capsys, tmp_path):
    import random

    from support import random_mass, random_model, as_text_dict

    rng = random.Random(99)
    model = random_model(rng, n=3)
    doc = {
        "frame": list(model.frame.atoms),
        "model": "exclusive" if model == Model.exclusive(model.frame) else "free",
        "rule": "sdli",
        "sources": [
            {"name": f"s{i}", "masses": as_text_dict(random_mass(rng, model))}
            for i in range(4)
        ],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["verify", path]) == 0


# the scope of eq7 ------------------------------------------------------------------
# The closed formula splits a conflicting product between its two focal
# sets; the stored state splits it over the product's conflict parties.
# The two agree where both focal sets are unions of atoms, since those are
# then the parties, and eq7 compares only source pairs where every
# conflicting product is of that kind.

def test_eq7_compares_only_pairs_the_closed_formula_covers(capsys, tmp_path):
    # A-B and B-C exclusive: A&C meets B in conflict, and sdli2 gives
    # A&C .374, B .506 where the stored route gives A&C .18, B .70
    sources = [{"name": "meet", "masses": {"A&C": 0.6, "A|B|C": 0.4}},
               {"name": "b", "masses": {"B": 0.7, "A|B|C": 0.3}},
               {"name": "a", "masses": {"A": 0.5, "A|B|C": 0.5}}]
    doc = {"frame": ["A", "B", "C"], "model": {"exclusive_pairs": [["A", "B"], ["B", "C"]]},
           "rule": "sdli", "sources": sources[:2]}
    assert main(["verify", write_scenario(tmp_path, doc), "--checks", "eq7"]) == 0
    assert capsys.readouterr().out == "SKIP eq7\n"
    doc["sources"] = sources
    assert main(["verify", write_scenario(tmp_path, doc), "--checks", "eq7"]) == 0
    assert capsys.readouterr().out.startswith("PASS eq7 ")


def ref_closed_form_applies(model, a, b) -> bool:
    # every conflicting product comes from two unions of atoms
    frame, visible = model.frame, ~model.constrained

    def union_of_atoms(p):
        return all(bin(atoms).count("1") == 1 for atoms in ref_minimal_minterms(frame, p.bits))

    return all(union_of_atoms(x) and union_of_atoms(y)
               for x in a.focal() for y in b.focal() if not x.bits & y.bits & visible)


@st.composite
def source_pairs(draw):
    """A model on 3-5 atoms (exclusive, or some exclusive pairs: a free model
    has no conflict) and two sources of 1-4 focal sets, with masses k/100.
    A focal set is a union of 1-3 atoms or, one time in four, of 1-3
    intersections of two atoms."""
    n = draw(st.integers(3, 5))
    frame = Frame(("A", "B", "C", "D", "E")[:n])
    if draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              min_size=1, max_size=n, unique=True))
        model = Model.with_exclusions(frame, pairs)
    else:
        model = Model.exclusive(frame)
    atom = st.integers(0, n - 1)

    def focal():
        meets, p = draw(st.integers(0, 3)) == 0, frame.empty()
        for _ in range(draw(st.integers(1, 3))):
            term = frame.atom(draw(atom))
            p = p | (term & frame.atom(draw(atom)) if meets else term)
        return p | frame.atom(draw(atom)) if model.is_empty(p) else p

    def source():
        count = draw(st.integers(1, 4))
        cuts = sorted(draw(st.sets(st.integers(1, 99), min_size=count - 1, max_size=count - 1)))
        parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, 100])]
        return MassFunction(model, [(focal(), k / 100) for k in parts])

    return model, source(), source()


def test_atom_unions_and_eq7_scope_leave_the_rendering_memo_empty():
    # only rendering peels into Frame._regions; eq7's scope test compares
    # each conflicting operand with its atom union
    frame = Frame(("A", "B", "C", "D"))
    model = Model.exclusive(frame)
    a, b, c, d = (frame.atom(name) for name in frame.atoms)
    m1 = MassFunction(model, [(a, 0.6), (b | c, 0.4)])
    assert not _closed_form_applies(model, m1, MassFunction(model, [(c, 0.5), (a & b | d, 0.5)]))
    assert _closed_form_applies(model, m1, MassFunction(model, [(c | d, 1.0)]))
    assert frame._route((a & b | d).bits)[1] == (a | b | d).bits
    assert not frame._regions


# sdli2 multiplies two masses, adds at most 16 products into a term, sums
# at most 8 shares, divides twice per share and renormalises once, all on
# positive numbers, so its relative error stays near 50 * 2**-53; the bound
# below was fixed before the first run.
SDLI2_RELATIVE_BOUND = 1e-12


@settings(max_examples=200, deadline=None)
@given(source_pairs())
def test_sdli2_matches_the_exact_reference_where_eq7_compares(pair):
    model, a, b = pair
    covered = _closed_form_applies(model, a, b)
    assert covered == ref_closed_form_applies(model, a, b)
    assume(covered)
    want = ref_exact_snapshot(Rule.SDLI, model, *ref_exact_state([a, b]))
    got = {p.bits: v for p, v in sdli2(a, b).items()}
    assert got.keys() == want.keys()
    for bits, exact in want.items():
        assert abs(Fraction(got[bits]) - exact) <= SDLI2_RELATIVE_BOUND * exact, bits


# shared refold prefixes against refolding every list from scratch ---------------

def random_scenario(rng, count):
    model = random_model(rng, n=4)
    names = [f"s{i + 1}" for i in range(count)]
    start = FusionState.initial(model, 0.0)
    return Scenario(start, names, random_sources(rng, model, count), Rule.SDLI)


def padded_lists(scenario):
    masses = scenario.masses
    neutral = [vbf(scenario.start.model)]
    return [masses[:k] + neutral + masses[k:] for k in range(len(masses) + 1)]


def ordered_lists(scenario, orders):
    masses = scenario.masses
    return [[masses[i] for i in order] for order in orders]


def outcome(check, *args):
    """A check's result, or the type and message of the error it raised."""
    try:
        return check(*args)
    except (ValidationError, TotalConflictError) as exc:
        return type(exc), str(exc)


def pruned_scenario(rng, count):
    # a prune_epsilon breaks order invariance, so some refolds deviate
    scenario = random_scenario(rng, count)
    start = FusionState.initial(scenario.start.model, 0.1)
    return Scenario(start, scenario.names, scenario.masses, scenario.rule)


@pytest.mark.parametrize("rule", ["sdli", "dubois_prade", "yager", "smets", "dempster"])
def test_refold_checks_match_reference(rule):
    # the vbf check and the sampled orderings (n! > 720) continue each list
    # from the prefix chain; each must equal refolding every list from the
    # start, value for value or error for error (dempster meets total
    # conflict on the seven sources)
    rng = random.Random(f"refold/{rule}")
    six, seven, eight = (random_scenario(rng, n) for n in (6, 7, 8))
    pruned, pruned7 = scenario_from_dict(pruned_doc()), pruned_scenario(rng, 7)
    # one MassFunction object listed many times: a shuffle then shares a
    # longer prefix with the scenario's order object for object than
    # position for position, and each check continues from the latter
    m, a, b = eight.masses[:3]
    repeats = (Scenario(eight.start, eight.names[:7], [m] * 7, eight.rule),
               Scenario(eight.start, eight.names, [a, b] * 4, eight.rule))
    scenarios = (six, seven, eight, pruned, pruned7, *repeats)
    for scenario in scenarios:
        want = outcome(ref_worst_refold, scenario, rule, padded_lists(scenario))
        assert outcome(_check_vbf, scenario, rule) == want
    for scenario in scenarios:
        count = len(scenario.masses)
        orders = (permutations(range(count)) if count < 7
                  else (order for order, _ in _orderings(count, 100, 0)))
        want = outcome(ref_worst_refold, scenario, rule, ordered_lists(scenario, orders))
        assert outcome(_check_permutation, scenario, rule, 100, 0) == want
    # the pruned orderings deviate past the tolerance under every rule here but dempster
    deviates = _check_permutation(pruned, rule, 100, 0) > CHECKS["permutation"][0]
    assert deviates == (rule != "dempster")


def count_fuses(monkeypatch) -> list:
    """From here on, record the source of every ``FusionState.fuse`` call."""
    calls, fuse = [], FusionState.fuse

    def counting_fuse(self, m):
        calls.append(m)
        return fuse(self, m)

    monkeypatch.setattr(FusionState, "fuse", counting_fuse)
    return calls


@pytest.mark.parametrize("path, fuses", [
    # the scenario's own order 4, then the vbf padded into each of the 5
    # places, each continued from the prefix chain after the k sources
    # before it: 5 + 4 + 3 + 2 + 1 (19 before, when each list was continued
    # from the one before it: 5 + 5 + 4 + 3 + 2)
    (FOUR, 4 + 15),
    # the same for six sources: 7 + 6 + 5 + 4 + 3 + 2 + 1 (40 before)
    (RING5, 6 + 28),
], ids=["four", "ring5"])
def test_vbf_check_continues_the_prefix_chain(monkeypatch, capsys, path, fuses):
    calls = count_fuses(monkeypatch)
    assert main(["verify", path, "--checks", "vbf"]) == 0
    assert len(calls) == fuses


def test_sampled_orderings_continue_the_prefix_chain(monkeypatch):
    # the scenario's own order 7, then for each sampled ordering the sources
    # after the prefix it shares with the scenario's order
    scenario = random_scenario(random.Random("sampled"), 7)
    orders = list(_orderings(7, 50, 3))
    shared = [next((k for k in range(7) if order[k] != k), 7) for order, _ in orders]
    assert [k for _, k in orders] == shared
    calls = count_fuses(monkeypatch)
    _check_permutation(scenario, "sdli", 50, 3)
    assert len(calls) == 7 + sum(7 - k for k in shared)


def test_verify_folds_the_scenario_order_once(monkeypatch, capsys):
    # the scenario's own order 4, then permutation 45, markov 0, vbf 15, eq7
    # 6 pairs x 2; the permutation walk fuses 4 + 12 + 2 x 9 + 1 x 15, once
    # per distinct state of one to three sources, less the 4 states of the
    # scenario's own order, which it takes from the prefix chain; the markov
    # check, the vbf refolds and the baseline share that chain too, the vbf
    # refolds 5 + 4 + 3 + 2 + 1 after the prefix each shares with it (95
    # before, when the permutation check refolded 60 of the 64 nodes of the
    # trie; 80 before, when each vbf refold went on from the one before it)
    calls = count_fuses(monkeypatch)
    assert main(["verify", FOUR]) == 0
    assert len(calls) == 76


def test_permutation_walk_folds_each_distinct_state_once(monkeypatch, capsys):
    # the scenario's own order 6, then the walk 6 + 30 + 4 x 23 + 3 x 91 +
    # 2 x 272 + 1 x 537, once per distinct state of one to five sources,
    # less the 6 states of the scenario's own order, taken from the prefix
    # chain; the trie of all 720 orderings has 6 + 30 + 120 + 360 + 720 +
    # 720 = 1956 nodes.  528 distinct six-source states take a snapshot,
    # and so does the baseline
    calls = count_fuses(monkeypatch)
    snapshots, snapshot = [], FusionState.snapshot
    monkeypatch.setattr(FusionState, "snapshot",
                        lambda self, rule: snapshots.append(self) or snapshot(self, rule))
    assert main(["verify", RING5, "--checks", "permutation"]) == 0
    assert (len(calls), len(snapshots)) == (1482, 529)


def test_fuse_and_stream_leave_the_prefix_chain_unfolded(capsys):
    # they hold one state at a time, so a long stream keeps no accumulator list
    scenario = load_scenario(FOUR)
    assert cmd_fuse(scenario, scenario.rule, "table") == 0
    assert cmd_stream(scenario, scenario.rule, "json") == 0
    assert "states" not in vars(scenario)
    assert len(scenario.states) == 5 and scenario.states[0] is scenario.start
    assert "states" in vars(scenario)


def test_sampled_orderings_are_drawn_lazily():
    # a list of every ordering took about 112 bytes per trial before the
    # first refold: 11 MB here, about 11 GB for 100 000 000 trials
    rng, want = random.Random(0), []
    for _ in range(10):
        order = list(range(8))
        rng.shuffle(order)
        want.append(order)
    tracemalloc.start()
    try:
        first = [order for order, _ in islice(_orderings(8, 100_000, 0), 10)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == want
    assert peak < 1_000_000


# the permutation walk over every ordering against refolding each from scratch ---

def assert_walk_matches_reference(scenario, rule):
    every = ordered_lists(scenario, permutations(range(len(scenario.masses))))
    want = outcome(ref_worst_refold, scenario, rule, every)
    assert outcome(_check_permutation, scenario, rule, 100, 0) == want


@st.composite
def permutation_scenarios(draw):
    """2-5 sources of 1-4 focal sets with masses k/100 on 3-4 atoms, under a
    free, an exclusive or a some-pairs-exclusive model, any rule, and now and
    then a prune_epsilon.  A focal set is a union of 1-3 atoms or of 1-3
    intersections of two atoms, widened by one atom if the model empties it."""
    n = draw(st.integers(3, 4))
    frame = Frame(("A", "B", "C", "D")[:n])
    kind = draw(st.sampled_from(["free", "exclusive", "pairs"]))
    if kind == "pairs":
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              min_size=1, max_size=n, unique=True))
        model = Model.with_exclusions(frame, pairs)
    else:
        model = Model.free(frame) if kind == "free" else Model.exclusive(frame)
    atom = st.integers(0, n - 1)

    def focal():
        meets, p = draw(st.booleans()), frame.empty()
        for _ in range(draw(st.integers(1, 3))):
            term = frame.atom(draw(atom))
            p = p | (term & frame.atom(draw(atom)) if meets else term)
        return p | frame.atom(draw(atom)) if model.is_empty(p) else p

    def source():
        count = draw(st.integers(1, 4))
        cuts = sorted(draw(st.sets(st.integers(1, 99), min_size=count - 1, max_size=count - 1)))
        parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, 100])]
        return MassFunction(model, [(focal(), k / 100) for k in parts])

    masses = [source() for _ in range(draw(st.integers(2, 5)))]
    epsilon = draw(st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2]))
    names = [f"s{i + 1}" for i in range(len(masses))]
    return Scenario(FusionState.initial(model, epsilon), names, masses,
                    draw(st.sampled_from(list(Rule))))


@settings(max_examples=150, deadline=None)
@given(permutation_scenarios())
def test_permutation_walk_matches_every_refold(scenario):
    # == on the floats, or the same error type and message
    assert_walk_matches_reference(scenario, scenario.rule)


@pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
@pytest.mark.parametrize("path", [RING5, PRUNED3], ids=["ring5", "pruned3"])
def test_permutation_walk_matches_every_refold_on_golden_scenarios(path, rule):
    # ring5 has 6 sources, 720 orderings; the golden records print only 4
    # significant digits of a deviation, so this is the bit-level guard
    assert_walk_matches_reference(load_scenario(path), rule)


def test_permutation_walk_raises_the_first_orderings_error(capsys, tmp_path):
    # the scenario's own order folds, but orderings empty the pruned state:
    # (1, 2, 0, 3), the first of them, at source 3, and the later
    # (2, 0, 1, 3) already at source 2; the first in permutation order wins
    doc = {
        "frame": ["A", "B", "C"],
        "model": "free",
        "rule": "yager",
        "prune_epsilon": 0.3,
        "sources": [
            {"name": "s1", "masses": {"A|B": 0.2, "B": 0.1, "C": 0.5, "A|B|C": 0.2}},
            {"name": "s2", "masses": {"A|B": 1.0}},
            {"name": "s3", "masses": {"A": 0.4, "B|C": 0.2, "C": 0.1, "A|C": 0.3}},
            {"name": "s4", "masses": {"B": 1.0}},
        ],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["fuse", path]) == 0
    capsys.readouterr()
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prune_epsilon=0.3 removed every term at source 3\n"


@pytest.mark.parametrize("path", [FOUR, RING5, PRUNED3], ids=["four_sources", "ring5", "pruned3"])
def test_verify_leaves_no_reference_cycle(capsys, path):
    # a cycle through the walk would keep its memo alive until a full collection
    build_parser()
    gc.collect()
    gc.disable()
    try:
        main(["verify", path])
        assert gc.collect() == 0
    finally:
        gc.enable()


# scenario validation ---------------------------------------------------------------

def test_missing_file(capsys):
    assert main(["fuse", "/nonexistent/path.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["fuse", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"frame": "\xff"}')
    assert main(["fuse", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not valid UTF-8\n"


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.update(frame=["A"]), "frame"),
        (lambda d: d.update(frame=["A", "A"]), "frame"),
        (lambda d: d.update(model="open"), "model"),
        (lambda d: d.update(rule="murphy"), "rule"),
        (lambda d: d.update(sources=[]), "sources"),
        (lambda d: d.update(prune_epsilon=2), "prune_epsilon"),
        (lambda d: d.update(extra_field=1), "extra_field"),
        (
            lambda d: d["sources"].append({"name": "bad", "masses": {"A": 0.5, "B": 0.4}}),
            "sources[2] (bad)",
        ),
        (
            lambda d: d["sources"].append({"name": "bad", "masses": {"A&&B": 1.0}}),
            "sources[2].masses",
        ),
        (
            lambda d: d["sources"].append({"name": "bad", "masses": {"Z": 1.0}}),
            "sources[2].masses['Z']",
        ),
        # explicit ids keep the generated ids of the cases above unique
        pytest.param(
            lambda d: d["sources"].append({"name": "bad", "masses": {"A": float("nan"), "B": 1.0}}),
            "sources[2] (bad)",
            id="nan-mass",
        ),
        pytest.param(
            lambda d: d["sources"].append({"name": "bad", "masses": {"A": float("inf"), "B": 1.0}}),
            "sources[2] (bad)",
            id="inf-mass",
        ),
        pytest.param(
            lambda d: d["sources"].append({"name": "bad", "masses": {"(" * 5000 + "A" + ")" * 5000: 1.0}}),
            "sources[2].masses",
            id="deep-nesting",
        ),
        pytest.param(
            lambda d: d["sources"].append({"name": "bad", "masses": {"A": 10 ** 400}}),
            "sources[2].masses['A']",
            id="huge-int-mass",
        ),
        pytest.param(
            lambda d: d.update(model={"exclusive_pairs": [["A", "B"]], "x": 1}),
            "model.x: unknown model field",
            id="model-unknown-key",
        ),
        pytest.param(
            lambda d: d["sources"][0].update(discount=0.5),
            "sources[0].discount: unknown source field",
            id="source-unknown-key",
        ),
        *(
            pytest.param(
                lambda d, pair=pair: d.update(model={"exclusive_pairs": [pair]}),
                "model.exclusive_pairs[0]: must be a pair of atom names",
                id=f"pair-{name}",
            )
            for name, pair in [
                ("float-int", [0.5, 1]),
                ("nested-list", ["A", ["B"]]),
                ("null", [None, "B"]),
                ("positions", [0, 1]),
                ("bool", [True, "A"]),
            ]
        ),
        pytest.param(
            lambda d: d.update(model={"exclusive_pairs": "AB"}),
            "model.exclusive_pairs: must be a list of atom pairs",
            id="pairs-str",
        ),
        pytest.param(
            lambda d: d.update(model={"exclusive_pairs": [["A", "Z"]]}),
            "model.exclusive_pairs: unknown atom 'Z'",
            id="pair-unknown-atom",
        ),
        pytest.param(
            lambda d: d.update(model={"exclusive_pairs": [["A", "A"]]}),
            "model.exclusive_pairs: exclusive pair must name two distinct atoms, got ('A', 'A')",
            id="pair-same-atom",
        ),
        # the loader leaves these to Frame and FusionState
        pytest.param(lambda d: d.update(frame="AB"), "frame: atoms", id="frame-str"),
        pytest.param(lambda d: d.update(frame={"A": 1, "B": 2}), "frame: atoms", id="frame-dict"),
        pytest.param(lambda d: d.update(prune_epsilon=False), "prune_epsilon", id="prune-bool"),
        # json.load refuses an int past the interpreter's digit limit with a
        # plain ValueError; without that limit the value fails FusionState's check
        pytest.param(
            lambda d: d.update(prune_epsilon=HUGE_INT),
            "not valid JSON" if getattr(sys, "get_int_max_str_digits", int)() else "prune_epsilon",
            id="prune-huge-int",
        ),
        # A alone survives source 1; A and A&B get 0.5 each at source 2
        pytest.param(
            lambda d: d.update(prune_epsilon=0.6, sources=[{"masses": {"A": 1.0}},
                                                           {"masses": {"A": 0.5, "B": 0.5}}]),
            "prune_epsilon=0.6 removed every term at source 2",
            id="prune-emptied",
        ),
    ],
)
def test_scenario_errors_name_field(capsys, tmp_path, mutate, needle):
    doc = {
        "frame": ["A", "B", "C"],
        "model": "exclusive",
        "rule": "yager",
        "sources": [
            {"name": "s1", "masses": {"A": 1.0}},
            {"name": "s2", "masses": {"B|C": 1.0}},
        ],
    }
    mutate(doc)
    # json.dumps cannot write HUGE_INT as a number under the digit limit:
    # it goes in as a string and is unquoted here
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace(f'"{HUGE_INT}"', HUGE_INT), encoding="utf-8")
    assert main(["fuse", str(path)]) == 2
    assert needle in capsys.readouterr().err


def test_scenario_top_level_array_is_rejected(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('[{"frame": ["A", "B"]}]', encoding="utf-8")
    assert main(["fuse", str(path)]) == 2
    assert capsys.readouterr().err == "error: scenario: top level must be a JSON object\n"


def test_scenario_pair_model(tmp_path, capsys):
    doc = {
        "frame": ["A", "B", "C"],
        "model": {"exclusive_pairs": [["A", "B"]]},
        "rule": "dsm_hybrid",
        "sources": [
            {"name": "s1", "masses": {"A": 0.5, "B&C": 0.5}},
            {"name": "s2", "masses": {"B": 1.0}},
        ],
    }
    path = write_scenario(tmp_path, doc)
    assert main(["fuse", path]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "rule: dsm_hybrid"


def test_load_scenario_returns_sources_in_order():
    scenario = load_scenario(FOUR)
    assert scenario.names == ["m1", "m2", "m3", "m4"]
    assert scenario.rule.value == "dsm_hybrid"
    with pytest.raises(ScenarioError):
        load_scenario(str(SCENARIO_DIR))  # a directory, not a file


# the parser and the entry point --------------------------------------------------

def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "evfuse":  # the top-level parser, not a subcommand's
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for argv in (["fuse", THREE], ["stream", THREE], ["verify", THREE],
                 ["fuse", FOUR, "--output", "json"]):
        assert main(argv) == 0
    assert len(built) == 1
    assert build_parser() is built[0]


def test_parser_survives_usage_errors(capsys):
    runs = [["fuse", THREE], ["verify", FOUR]]
    before = [(main(argv), capsys.readouterr().out) for argv in runs]
    assert before[0] == (0, FUSE_THREE_TABLE)
    for argv in (["fuse"], ["bogus"]):
        with pytest.raises(SystemExit) as shared:
            main(argv)
        shared_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as fresh:
            build_parser.__wrapped__().parse_args(argv)
        assert shared.value.code == fresh.value.code == 2
        assert shared_err == capsys.readouterr().err != ""
    assert [(main(argv), capsys.readouterr().out) for argv in runs] == before


@pytest.mark.parametrize("argv", [["--help"], ["fuse", "--help"], ["verify", "--help"]],
                         ids=["evfuse", "fuse", "verify"])
def test_help_matches_a_fresh_parser(capsys, argv):
    main(["fuse", THREE])  # the shared parser has parsed a request before
    capsys.readouterr()
    with pytest.raises(SystemExit) as shared:
        main(argv)
    shared_out = capsys.readouterr().out
    with pytest.raises(SystemExit) as fresh:
        build_parser.__wrapped__().parse_args(argv)
    assert shared.value.code == fresh.value.code == 0
    assert shared_out == capsys.readouterr().out != ""


ROOT = SCENARIO_DIR.parent


def run_module(*args):
    """``python -m evfuse.cli`` from the checkout root, with an ASCII
    stdout and stderr, so only ``main``'s switch to UTF-8 lets ``∅``
    through."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONIOENCODING="ascii")
    return subprocess.run([sys.executable, "-m", "evfuse.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("rule", [[], ["--rule", "smets"]], ids=["scenario-rule", "smets"])
def test_module_entry_point_matches_main(capsys, rule):
    run = run_module("fuse", "scenarios/three_sources.json", "--output", "json", *rule)
    assert main(["fuse", THREE, "--output", "json", *rule]) == run.returncode == 0
    assert run.stdout == capsys.readouterr().out.encode("utf-8")
    assert run.stderr == b""


def test_module_entry_point_usage_error():
    run = run_module("bogus")
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr.startswith(b"usage: evfuse")


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"x": ', "}")],
                         ids=["array", "object"])
def test_json_nested_too_deeply_is_a_scenario_error(tmp_path, opening, closing):
    # json.load raised RecursionError, a traceback and exit 1 ("a check failed");
    # deep enough to pass the C decoder's limit on every supported Python
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"frame": ["A", "B"], "unknown": ' + opening * depth + "0" + closing * depth
                    + "}", encoding="utf-8")
    run = run_module("fuse", str(path))
    assert run.returncode == 2
    assert run.stdout == b""
    assert run.stderr == f"error: {path}: not valid JSON (nested too deeply)\n".encode("ascii")


def _named_scenario(path, masses):
    # one source named by a lone surrogate: legal JSON, not encodable text
    doc = {"frame": ["A", "B"], "model": "exclusive", "rule": "dempster",
           "sources": [{"name": "\ud800", "masses": masses}]}
    path.write_text(json.dumps(doc), encoding="ascii")
    return str(path)


@pytest.mark.parametrize("argv, code, stream, want", [
    (["stream", "good"], 0, "stdout", b"step 1: \\ud800\n"),
    (["stream", "good", "--output", "json"], 0, "stdout", b'"source": "\\ud800"'),
    (["fuse", "bad"], 2, "stderr", b"error: sources[0] (\\ud800): masses sum to"),
    (["fuse", os.fsdecode(b"missing\xff.json")], 2, "stderr", b"error: missing\\udcff.json: "),
], ids=["stream", "stream-json", "fuse-error", "missing-path"])
def test_module_escapes_text_that_is_not_utf8(tmp_path, argv, code, stream, want):
    # each used to raise UnicodeEncodeError mid-output and exit 1
    paths = {"good": _named_scenario(tmp_path / "good.json", {"A": 0.6, "A|B": 0.4}),
             "bad": _named_scenario(tmp_path / "bad.json", {"A": 0.6, "A|B": 0.9})}
    run = run_module(*(paths.get(arg, arg) for arg in argv))
    assert run.returncode == code
    assert want in getattr(run, stream)
    assert b"Traceback" not in run.stderr
    if "json" in argv:  # the escape keeps the output valid JSON
        assert json.loads(run.stdout)["steps"][0]["source"] == "\ud800"
