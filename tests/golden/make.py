"""Golden CLI outputs: the exit code and the sha256 of stdout and of
stderr for every rule and command on the shipped and golden scenarios.

Each scenario runs under every rule with ``fuse`` and ``stream`` (table
and json output) and with ``verify``.  ``tests/test_golden.py`` checks
the package against ``cli.json``.  Rewrite that file only when an output
change is intended:

    PYTHONPATH=src python3 tests/golden/make.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from evfuse import Rule
from evfuse.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "cli.json"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json")) + sorted((HERE / "scenarios").glob("*.json"))
COMMANDS = (
    ("fuse", "--output", "table"),
    ("fuse", "--output", "json"),
    ("stream", "--output", "table"),
    ("stream", "--output", "json"),
    ("verify",),
)


def cases():
    """``(case id, argv)`` pairs in a fixed order."""
    for path in SCENARIOS:
        for rule in Rule:
            for command, *output in COMMANDS:
                args = ["--rule", rule.value, *output]
                yield (" ".join([command, path.relative_to(ROOT).as_posix(), *args]),
                       [command, str(path), *args])


def _sha256(stream: io.TextIOWrapper) -> str:
    stream.flush()
    return hashlib.sha256(stream.buffer.getvalue()).hexdigest()


def run_case(argv) -> dict:
    """Run the CLI in-process; its exit code and the digests of the bytes
    it wrote.  The streams encode as a console's do, so text the console
    cannot take fails here too."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": _sha256(out), "stderr": _sha256(err)}


def write() -> None:
    golden = {case_id: run_case(argv) for case_id, argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(golden)} cases")


if __name__ == "__main__":
    write()
