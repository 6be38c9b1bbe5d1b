"""Byte identity of the command line against recorded outputs.

``tests/golden/cli.json`` holds the exit code and the sha256 of stdout
and of stderr of 280 CLI runs; ``tests/golden/make.py`` lists the runs
and rewrites the file when an output change is intended.
"""

import importlib.util
import json
from pathlib import Path

_MAKE = Path(__file__).resolve().parent / "golden" / "make.py"
_spec = importlib.util.spec_from_file_location("golden_make", _MAKE)
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_cli_output_matches_golden():
    golden = json.loads(make.GOLDEN.read_text(encoding="utf-8"))
    cases = list(make.cases())
    assert sorted(case_id for case_id, _ in cases) == sorted(golden), "case list differs from cli.json"
    for case_id, argv in cases:
        got = make.run_case(argv)
        assert got == golden[case_id], f"first mismatch: evfuse {case_id}: {got} != {golden[case_id]}"
