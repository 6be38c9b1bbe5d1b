"""The three workloads: their operations and the checks on their outputs.

A workload builds its inputs from the seed once, then yields one cycle
of operations at a time as ``(run, check)`` pairs.  ``run()`` is the
timed call into evfuse; ``check(output)`` is untimed and returns an
error message, or None when the output is right.  ``finish()`` runs the
end-of-cycle checks and returns their error messages.

Every cycle repeats the same inputs, so each run measures whole cycles
of identical work whatever its length.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import gen

SUM_TOL = 1e-9
REFOLD_TOL = 1e-9
SDLI2_TOL = 1e-12
# Rules whose snapshots may keep mass on model-empty propositions.
OPEN_WORLD = frozenset({"smets", "conjunctive", "dsm_classic"})
CHECKS = ("permutation", "markov", "vbf", "eq7")


# --- output checks (pure functions on plain data) ------------------------------


def check_distribution(masses: dict, constrained: int, rule: str):
    """A snapshot as ``{minterm mask: mass}``: non-negative, summing to 1,
    and off model-empty propositions unless the rule keeps conflict."""
    if any(not v >= 0.0 for v in masses.values()):
        return "negative or NaN mass"
    total = math.fsum(masses.values())
    if abs(total - 1.0) > SUM_TOL:
        return f"masses sum to {total!r}"
    if rule not in OPEN_WORLD and any(not bits & ~constrained for bits in masses):
        return f"{rule} keeps mass on a model-empty proposition"
    return None


def compare(got: dict, want: dict, tol: float):
    """Largest per-proposition difference between two snapshots."""
    worst = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in got.keys() | want.keys()),
                default=0.0)
    return None if worst <= tol else f"differs from reference by {worst:.3e}"


def check_fuse_output(code, text, parse, open_world=False, reference=None):
    """``evfuse fuse --output json``: exit 0, masses summing to 1, every
    key parsing back, and agreement with ``reference`` when given.

    An open-world (smets) result may also carry ``∅``, the documented
    spelling of the empty proposition, which is not parser input."""
    if code != 0:
        return f"exit code {code}"
    try:
        masses = json.loads(text)["masses"]
    except (ValueError, KeyError, TypeError):
        return "output is not the fuse JSON document"
    if any(not v >= 0.0 for v in masses.values()):
        return "negative or NaN mass"
    total = math.fsum(masses.values())
    if abs(total - 1.0) > SUM_TOL:
        return f"masses sum to {total!r}"
    by_bits = {}
    for key, value in masses.items():
        try:
            bits = 0 if open_world and key == "∅" else parse(key).bits
        except ValueError:
            return f"output key {key!r} does not parse"
        if bits in by_bits:
            return f"output key {key!r} repeats a proposition"
        by_bits[bits] = value
    return None if reference is None else compare(by_bits, reference, SDLI2_TOL)


def check_verify_output(code, text):
    """``evfuse verify``: exit 0 and one PASS line per check."""
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if len(lines) != len(CHECKS) or not all(line.startswith("PASS ") for line in lines):
        return "not every check passed: " + " | ".join(lines)
    return None


# --- helpers -----------------------------------------------------------------


def as_bits(mass_like) -> dict:
    return {p.bits: v for p, v in mass_like.items()}


def library_model(evfuse, frame, spec):
    pairs = spec["exclusive_pairs"] if isinstance(spec, dict) else spec
    return evfuse.make_model(frame, pairs)


def sources_of(evfuse, frame, model, sources):
    return [evfuse.MassFunction(model, [(frame.parse(e), v) for e, v in masses.items()])
            for masses in sources]


def run_cli(cli_main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def write_scenarios(directory: Path, docs):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"{i:02d}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        paths.append(str(path))
    return paths


# --- workloads -----------------------------------------------------------------


class _Line:
    def __init__(self, evfuse, spec):
        self.rule = spec["rule"]
        frame = evfuse.Frame(tuple(spec["frame"]))
        self.model = library_model(evfuse, frame, spec["model"])
        self.sources = sources_of(evfuse, frame, self.model, spec["sources"])
        self.state = None


class Stream:
    """Eight interleaved fusion lines; one op = fuse + snapshot."""

    def __init__(self, evfuse, seed: int):
        self.evfuse = evfuse
        self.lines = [_Line(evfuse, spec) for spec in gen.stream_lines(seed)]
        rng = random.Random(f"stream-refold/{seed}")
        self.orders = [rng.sample(range(len(line.sources)), len(line.sources))
                       for line in self.lines]
        self.refolds = None

    def _step(self, line, source):
        line.state = line.state.fuse(source)
        return line.state.snapshot(line.rule)

    def _check(self, line, snapshot):
        return check_distribution(as_bits(snapshot), line.model.constrained, line.rule)

    def cycle(self):
        for line in self.lines:
            line.state = self.evfuse.FusionState.initial(line.model)
        for step in range(max(len(line.sources) for line in self.lines)):
            for line in self.lines:
                if step < len(line.sources):
                    yield partial(self._step, line, line.sources[step]), partial(self._check, line)

    def _outcome(self, state, rule):
        """("snapshot", masses), or the name of the exception raised."""
        try:
            return "snapshot", as_bits(state.snapshot(rule))
        except (self.evfuse.TotalConflictError, self.evfuse.ValidationError) as exc:
            return type(exc).__name__, None

    def finish(self):
        """Each line's final snapshot must equal a refold of its sources
        in a seeded shuffled order.  When both raise there is no output
        to compare: the failure already counts against the operation."""
        if self.refolds is None:
            self.refolds = []
            for line, order in zip(self.lines, self.orders):
                state = self.evfuse.FusionState.initial(line.model)
                for i in order:
                    state = state.fuse(line.sources[i])
                self.refolds.append(self._outcome(state, line.rule))
        errors = []
        for line, (want_kind, want) in zip(self.lines, self.refolds):
            got_kind, got = self._outcome(line.state, line.rule)
            if got_kind == want_kind == "snapshot":
                problem = compare(got, want, REFOLD_TOL)
            elif "snapshot" in (got_kind, want_kind):
                problem = f"stream gave {got_kind}, refold {want_kind}"
            else:
                problem = None
            if problem:
                errors.append(f"{line.rule} refold: {problem}")
        return errors


class WideBatch:
    """``evfuse fuse`` requests on 8-16-atom frames; one op = one request."""

    def __init__(self, evfuse, seed: int, workdir: Path):
        from evfuse import cli

        self.evfuse = evfuse
        self.main = cli.main
        self.requests = gen.wide_requests(seed)
        self.paths = write_scenarios(workdir / "wide_batch", self.requests)
        self._checkers = {}

    def _checker(self, i):
        # built once per request: a 16-atom Model takes about a second
        if i not in self._checkers:
            doc = self.requests[i]
            frame = self.evfuse.Frame(tuple(doc["frame"]))
            reference = None
            if doc["rule"] == "sdli" and len(doc["sources"]) == 2:
                model = library_model(self.evfuse, frame, doc["model"])
                m1, m2 = sources_of(self.evfuse, frame, model,
                                    [s["masses"] for s in doc["sources"]])
                reference = as_bits(self.evfuse.sdli2(m1, m2))
            self._checkers[i] = (frame.parse, doc["rule"] == "smets", reference)
        return self._checkers[i]

    def _check(self, i, output):
        return check_fuse_output(*output, *self._checker(i))

    def cycle(self):
        for i, path in enumerate(self.paths):
            yield (partial(run_cli, self.main, ["fuse", path, "--output", "json"]),
                   partial(self._check, i))

    def finish(self):
        return []


class Verify:
    """``evfuse verify`` with all four checks; one op = one scenario."""

    def __init__(self, evfuse, seed: int, workdir: Path, root: Path):
        from evfuse import cli

        self.main = cli.main
        shipped = sorted(str(p) for p in (root / "scenarios").glob("*.json"))
        self.paths = shipped + write_scenarios(workdir / "verify", gen.verify_scenarios(seed))

    def cycle(self):
        for path in self.paths:
            yield partial(run_cli, self.main, ["verify", path]), _verify_check

    def finish(self):
        return []


def _verify_check(output):
    return check_verify_output(*output)
