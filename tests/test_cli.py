"""End-to-end command-line behavior: output bytes, exit codes, checks."""

import argparse
import json
import os
import random
import subprocess
import sys
from itertools import permutations

import pytest

from evfuse import MassFunction, Model, Rule, sdli2, vbf
from evfuse.cli import (
    CHECK_TOLERANCES,
    Scenario,
    ScenarioError,
    _orderings,
    _worst_refold,
    build_parser,
    load_scenario,
    main,
    scenario_from_dict,
)

from support import (
    SCENARIO_DIR,
    SDLI_12,
    UNION_12,
    UNION_123,
    UNION_1234,
    random_model,
    random_sources,
    ref_worst_refold,
)

THREE = str(SCENARIO_DIR / "three_sources.json")
FOUR = str(SCENARIO_DIR / "four_sources.json")
VBF_FIRST = str(SCENARIO_DIR / "vbf_first.json")

FUSE_THREE_TABLE = """\
rule: dsm_hybrid
conflict: 0.660000
A=0.318000
A|B=0.610000
A|B|C=0.050000
A|C=0.002000
B=0.020000
"""


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
    frame = scenario.model.frame
    rebuilt = MassFunction(
        scenario.model,
        [(frame.parse(expr), v) for expr, v in payload["masses"].items()],
    )
    assert rebuilt.is_input_valid()


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
    (_, m1), (_, m2) = load_scenario(path).sources
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


# shared refold prefixes against refolding every list from scratch ---------------

def random_scenario(rng, count):
    model = random_model(rng, n=4)
    sources = [(f"s{i + 1}", m) for i, m in enumerate(random_sources(rng, model, count))]
    return Scenario(model, sources, Rule.SDLI, 0.0)


def padded_lists(scenario):
    masses = [m for _, m in scenario.sources]
    neutral = [vbf(scenario.model)]
    return [masses[:k] + neutral + masses[k:] for k in range(len(masses) + 1)]


def ordered_lists(scenario, orders):
    masses = [m for _, m in scenario.sources]
    return [[masses[i] for i in order] for order in orders]


@pytest.mark.parametrize("rule", ["sdli", "dubois_prade", "yager", "smets"])
def test_worst_refold_matches_reference(rule):
    rng = random.Random(f"refold/{rule}")
    six, eight = random_scenario(rng, 6), random_scenario(rng, 8)
    pruned = scenario_from_dict(pruned_doc())
    masses = [m for _, m in six.sources]
    cases = [
        (six, ordered_lists(six, permutations(range(6)))),  # all 720 orderings
        (eight, ordered_lists(eight, _orderings(8, 100, 0))),  # sampled orderings
        (six, padded_lists(six)),
        (eight, padded_lists(eight)),
        (pruned, ordered_lists(pruned, permutations(range(3)))),
        (pruned, padded_lists(pruned)),
        # repeats, a prefix of the previous list, then a longer list again
        (six, [masses, masses, masses[:3], masses[:2] + masses[3:], masses[::-1], masses[:1]]),
    ]
    for scenario, lists in cases:
        assert _worst_refold(scenario, rule, lists) == ref_worst_refold(scenario, rule, lists)
    lists = ordered_lists(pruned, permutations(range(3)))
    assert _worst_refold(pruned, rule, lists) > CHECK_TOLERANCES["permutation"]


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
    path = write_scenario(tmp_path, doc)
    assert main(["fuse", path]) == 2
    assert needle in capsys.readouterr().err


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
    assert [name for name, _ in scenario.sources] == ["m1", "m2", "m3", "m4"]
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
