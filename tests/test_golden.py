"""Byte identity of the command line against recorded outputs.

``tests/golden/cli.json`` holds the exit code and the sha256 of stdout
and of stderr of 280 CLI runs; ``tests/golden/make.py`` lists the runs
and rewrites the file when an output change is intended.  Mutations of
the same scenarios must still map to a documented exit code.
"""

import copy
import functools
import importlib.util
import json
import math
import operator
from pathlib import Path

from hypothesis import given, settings, strategies as st

_MAKE = Path(__file__).resolve().parent / "golden" / "make.py"
_spec = importlib.util.spec_from_file_location("golden_make", _MAKE)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_cli_output_matches_golden():
    golden = json.loads(make.GOLDEN.read_text(encoding="utf-8"))
    cases = list(make.cases())
    assert sorted(case_id for case_id, _ in cases) == sorted(golden), "case list differs from cli.json"
    differ = [case_id for case_id, argv in cases if make.run_case(argv) != golden[case_id]]
    assert not differ, f"{len(differ)} of {len(cases)} records differ, first: {differ[:5]}"


# every mutated scenario exits with a documented code --------------------------

_DOCS = [json.loads(path.read_text(encoding="utf-8")) for path in make.SCENARIOS]
_WRONG_TYPES = [None, True, 1, 0.5, "A", [], ["A"], {}, {"A": 1}]
_NUMBERS = [math.nan, math.inf, -math.inf, 10**399, -(10**399)]  # 10**399 has 400 digits
_TEXT_EDITS = {
    "surrogate": lambda text: text + "\ud800",
    "parentheses": lambda text: "(" * 150 + text + ")" * 150,
}


def _places(node, path=()):
    # the path to every value below node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _places(child, path + (key,))


def _mutated(data):
    """A copy of a golden scenario with one value or key mutated."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_DOCS)))
    *path, key = data.draw(st.sampled_from(list(_places(doc))))
    parent = functools.reduce(operator.getitem, path, doc)
    old = parent[key]
    kind = data.draw(st.sampled_from(["type", "number", "unknown key", *_TEXT_EDITS]))
    if kind == "type":
        parent[key] = data.draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(old)]))
    elif kind == "number":
        parent[key] = data.draw(st.sampled_from(_NUMBERS))
    elif kind == "unknown key":
        (old if isinstance(old, dict) else doc)["unknown"] = 1
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        parent[_TEXT_EDITS[kind](key)] = parent.pop(key)
    else:
        parent[key] = _TEXT_EDITS[kind](old if isinstance(old, str) else "")
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_scenario_exits_with_a_documented_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(_mutated(data)), encoding="ascii")
    command, *output = data.draw(st.sampled_from(make.COMMANDS))
    assert make.run_case([command, str(path), *output])["exit"] in (0, 1, 2, 3)
