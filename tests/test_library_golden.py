"""Bit identity of the library against a recorded fusion run.

``tests/golden/library.json`` holds, for each seeded line of
``support.GOLDEN_LINES`` and each rule, one digest per source: the
sha256 (first 16 hex digits) of the snapshot after that source, taken
over its keys' minterm masks in order and the ``float.hex`` of their
masses, or the name of the error the snapshot raised.  The final stored
accumulator and column sums of each line are recorded the same way.
Rewrite the record only when a numeric change is intended:

    PYTHONPATH=src python3 tests/test_library_golden.py
"""

import hashlib
import json
from pathlib import Path

from evfuse import FusionState, Rule, TotalConflictError

from support import GOLDEN_LINES, golden_model, golden_sources

RECORD = Path(__file__).resolve().parent / "golden" / "library.json"


def _digest(pairs) -> str:
    h = hashlib.sha256()
    for p, v in pairs:
        h.update(f"{p.bits}:{v.hex()};".encode())
    return h.hexdigest()[:16]


def _snapshot_digest(state, rule) -> str:
    try:
        return _digest(state.snapshot(rule).items())
    except TotalConflictError as exc:
        return type(exc).__name__


def record() -> dict[str, list[str]]:
    """``{"<line>/<rule>": [digest per source], "<line>/accumulator": [...],
    "<line>/columns": [...]}`` in a fixed order."""
    out = {}
    for line, kind, count, epsilon in GOLDEN_LINES:
        model = golden_model(kind)
        state = FusionState.initial(model, epsilon)
        steps = {rule: [] for rule in Rule}
        for source in golden_sources(line, model, count):
            state = state.fuse(source)
            for rule, digests in steps.items():
                digests.append(_snapshot_digest(state, rule))
        out.update((f"{line}/{rule.value}", digests) for rule, digests in steps.items())
        out[f"{line}/accumulator"] = [_digest(state.accumulator.items())]
        out[f"{line}/columns"] = [_digest(state.columns.sums.items())]
    return out


def test_library_matches_golden():
    golden = json.loads(RECORD.read_text(encoding="utf-8"))
    got = record()
    assert list(got) == list(golden), "line list differs from library.json"
    differ = []
    for line, want in golden.items():
        assert len(got[line]) == len(want), f"{line}: {len(got[line])} steps, recorded {len(want)}"
        steps = [step for step, (have, digest) in enumerate(zip(got[line], want), start=1)
                 if have != digest]
        if steps:
            differ.append(f"{line} from step {steps[0]}")
    assert not differ, f"{len(differ)} of {len(golden)} records differ, first: {differ[:5]}"


if __name__ == "__main__":
    lines = (f"{json.dumps(line)}: {json.dumps(digests)}" for line, digests in record().items())
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
