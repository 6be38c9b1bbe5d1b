"""Scenario-driven command line: batch fusion, streaming, and checks.

A scenario is one JSON document naming a frame, a model, a rule, an
optional ``prune_epsilon`` and an ordered list of sources, each its masses
(proposition expression -> mass) and an optional ``name``.  Output is
deterministic: fixed sort order, 6-decimal tables, full-precision JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import struct
import sys
from functools import cache, cached_property
from itertools import accumulate, combinations
from operator import itemgetter

from .engine import FusionState, oracle_conjunctive
from .errors import TotalConflictError, ValidationError
from .lattice import Frame, Model, make_model
from .mass import MassFunction, deviation, vbf
from .rules import Rule, sdli2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RULE_ERROR = 3

ORDERINGS_CAP = 720


class Scenario:
    """A loaded scenario: its start state, its sources' names and masses in order, its rule."""

    def __init__(self, start: FusionState, names: list[str], masses: list[MassFunction],
                 rule: Rule):
        self.start, self.names, self.masses, self.rule = start, names, masses, rule

    @cached_property
    def states(self) -> list[FusionState]:
        """The prefix chain, folded on first use: ``states[k]`` is the state after k sources."""
        return list(accumulate(self.masses, FusionState.fuse, initial=self.start))


def _fail(field: str, problem: str):
    raise ValidationError(f"{field}: {problem}")


def _reject_unknown(obj: dict, known: set[str], prefix: str, what: str):
    for key in obj:
        if key not in known:
            _fail(f"{prefix}{key}", f"unknown {what} field")


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        _fail("scenario", "top level must be a JSON object")

    try:
        frame = Frame(doc.get("frame"))
    except ValidationError as exc:
        _fail("frame", str(exc))

    spec, field = doc.get("model", "free"), "model"
    if isinstance(spec, dict):
        _reject_unknown(spec, {"exclusive_pairs"}, "model.", "model")
        spec, field = spec.get("exclusive_pairs"), "model.exclusive_pairs"
        if not isinstance(spec, list):
            _fail(field, "must be a list of atom pairs")
        for i, pair in enumerate(spec):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(a, str) for a in pair)):
                _fail(f"{field}[{i}]", "must be a pair of atom names")
    elif spec not in ("free", "exclusive"):
        _fail("model", f"must be 'free', 'exclusive', or an exclusive_pairs object, got {spec!r}")
    try:
        model = make_model(frame, spec)
    except ValidationError as exc:
        _fail(field, str(exc))

    rule_name = doc.get("rule")
    try:
        rule = Rule(rule_name)
    except ValueError:
        _fail("rule", f"unknown rule {rule_name!r} (choose from {', '.join(r.value for r in Rule)})")

    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        _fail("sources", "must be a non-empty list")
    names, sources = [], []
    for i, entry in enumerate(raw_sources):
        if not isinstance(entry, dict):
            _fail(f"sources[{i}]", "must be an object with 'masses' and an optional 'name'")
        _reject_unknown(entry, {"name", "masses"}, f"sources[{i}].", "source")
        name = entry.get("name", f"source_{i + 1}")
        if not isinstance(name, str):
            _fail(f"sources[{i}].name", "must be a string")
        if "".join(name.splitlines()) != name:  # a table row per line could be forged
            _fail(f"sources[{i}].name", "must not contain a line break")
        masses = entry.get("masses")
        if not isinstance(masses, dict):
            _fail(f"sources[{i}].masses", "must map expressions to numbers")
        assignments = []
        for expr, value in masses.items():
            try:
                prop = frame.parse(expr)
            except ValidationError as exc:
                _fail(f"sources[{i}].masses[{expr!r}]", str(exc))
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                _fail(f"sources[{i}].masses[{expr!r}]", f"mass must be a number, got {value!r}")
            try:
                assignments.append((prop, float(value)))
            except OverflowError:
                _fail(f"sources[{i}].masses[{expr!r}]", "mass is too large for a float")
        try:
            mass = MassFunction(model, assignments)
        except ValidationError as exc:
            _fail(f"sources[{i}] ({name})", str(exc))
        names.append(name)
        sources.append(mass)

    start = FusionState.initial(model, doc.get("prune_epsilon", 0.0))
    _reject_unknown(doc, {"frame", "model", "rule", "sources", "prune_epsilon"}, "", "scenario")
    return Scenario(start, names, sources, rule)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8") from None
    except ValueError as exc:  # JSONDecodeError, or an int past the interpreter's digit limit
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:  # arrays or objects nested past the decoder's depth limit
        raise ValidationError(f"{path}: not valid JSON (nested too deeply)") from None
    return scenario_from_dict(doc)


def _rows(m: MassFunction) -> list[tuple[str, float]]:
    # distinct masks render to distinct texts: sorting by text is the tuple order
    text = m.model.frame._text
    rows = [(text(bits), v) for bits, v in m._masses.items()]
    rows.sort(key=itemgetter(0))
    return rows


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` nested at ``pad``, for
    scalars, lists and dicts with string keys.  ``indent`` selects json's pure-Python
    encoder; here a dict of scalars, such as a snapshot's masses, is one call into
    its C encoder, whose item separator ends a line and indents the next."""
    inner = pad + "  "
    sep = ",\n" + inner
    encode = json.JSONEncoder(ensure_ascii=False, separators=(sep, ": ")).encode
    if isinstance(value, dict) and value:
        if not any(isinstance(v, (dict, list)) for v in value.values()):
            return f"{{\n{inner}{encode(value)[1:-1]}\n{pad}}}"
        body = sep.join(f"{encode(k)}: {_json(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, list) and value:
        body = sep.join(_json(v, inner) for v in value)
        return f"[\n{inner}{body}\n{pad}]"
    return encode(value)


def cmd_fuse(scenario: Scenario, rule: Rule, output: str) -> int:
    state = scenario.start.fold(scenario.masses)
    return _report(rule, output, [(None, state.accumulator.conflict_mass(),
                                   _rows(state.snapshot(rule)))])


def cmd_stream(scenario: Scenario, rule: Rule, output: str) -> int:
    state, steps = scenario.start, []
    for name, mass in zip(scenario.names, scenario.masses):
        state = state.fuse(mass)
        steps.append((name, state.accumulator.conflict_mass(), _rows(state.snapshot(rule))))
    return _report(rule, output, steps, with_steps=True)


def _report(rule: Rule, output: str, steps, with_steps: bool = False) -> int:
    """Write the last ``(source, conflict, rows)`` record of ``steps``;
    stream writes every step's record before it."""
    _, conflict, rows = steps[-1]
    if output == "json":
        payload = {"rule": rule.value}
        if with_steps:
            payload["steps"] = [{"source": name, "conflict": c, "masses": dict(r)}
                                for name, c, r in steps]
        text = _json({**payload, "conflict": conflict, "masses": dict(rows)})
    else:
        lines = [f"rule: {rule.value}"]
        for i, (name, c, r) in enumerate(steps, start=1):
            if with_steps:
                lines.append(f"step {i}: {name}")
            lines += [f"conflict: {c:.6f}", *(f"{expr}={value:.6f}" for expr, value in r)]
        text = "\n".join(lines)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def _orderings(count: int, trials: int, seed: int):
    """``trials`` seeded shuffles of ``count`` sources, drawn one at a time."""
    rng = random.Random(seed)
    for _ in range(trials):
        order = list(range(count))
        rng.shuffle(order)
        yield order


def _state_key(used: int, state: FusionState, shapes: dict) -> tuple:
    # bit-equal states give equal keys: masks interned per shape, doubles packed
    acc, col = state.accumulator._masses, state.columns._masses
    shape = (tuple(acc), tuple(sorted(col)))
    doubles = [*acc.values(), *map(col.__getitem__, shape[1])]
    return used, shapes.setdefault(shape, shape), struct.pack(f"{len(doubles)}d", *doubles)


def _worst_completion(state, used, scenario, rule, baseline, memo, shapes) -> float:
    """Largest deviation from ``baseline`` of a snapshot of ``state`` folded on
    with the sources not in the bitmask ``used``, in every order.  A state with
    every source is scored with no key; any other call looks its bit-exact
    ``(used, state)`` pair up in ``memo`` where it starts and stores it once its
    children finish, so the first error raised is a refold's.  Children go in
    ``permutations`` order; along the scenario's own order, the prefix chain.
    A key stands for the sources left as a set, since all their orders are walked."""
    masses, chain = scenario.masses, scenario.states
    if used == (1 << len(masses)) - 1:
        return deviation(state.snapshot(rule), baseline)
    key = _state_key(used, state, shapes)
    if (worst := memo.get(key)) is not None:
        return worst
    worst = 0.0
    for i, m in enumerate(masses):
        if not used >> i & 1:
            child = chain[i + 1] if state is chain[i] else state.fuse(m)
            worst = max(worst, _worst_completion(child, used | 1 << i, scenario, rule,
                                                 baseline, memo, shapes))
    memo[key] = worst
    return worst


def _check_permutation(scenario: Scenario, rule: Rule, trials: int, seed: int) -> float | None:
    masses = scenario.masses
    if len(masses) < 2:
        return None  # one source has one ordering, the scenario's own
    baseline = scenario.states[-1].snapshot(rule)
    if math.factorial(len(masses)) > ORDERINGS_CAP:
        return max(deviation(scenario.start.fold([masses[i] for i in order]).snapshot(rule),
                             baseline) for order in _orderings(len(masses), trials, seed))
    return _worst_completion(scenario.start, 0, scenario, rule, baseline, {}, {})


def _check_markov(scenario: Scenario, *_) -> float | None:
    # None when there is no prefix of two or more sources to compare
    masses = scenario.masses
    return max((deviation(scenario.states[k].accumulator, oracle_conjunctive(masses[:k]))
                for k in range(2, len(masses) + 1)), default=None)


def _check_vbf(scenario: Scenario, rule: Rule, *_) -> float:
    # the neutral source goes in after k sources, so its refold continues from states[k]
    masses, chain, neutral = scenario.masses, scenario.states, vbf(scenario.start.model)
    baseline = chain[-1].snapshot(rule)
    return max(deviation(chain[k].fuse(neutral).fold(masses[k:]).snapshot(rule), baseline)
               for k in range(len(masses) + 1))


def _closed_form_applies(model: Model, m1: MassFunction, m2: MassFunction) -> bool:
    # every conflicting product comes from two unions of atoms, which are
    # then its conflict parties; only a union of atoms equals its atom union
    visible, route = model.visible, model.frame._route
    return all(x == route(x)[1] and y == route(y)[1] for x in m1._masses for y in m2._masses
               if not x & y & visible)


def _check_eq7(scenario: Scenario, *_) -> float | None:
    model = scenario.start.model
    pairs = (p for p in combinations(scenario.masses, 2) if _closed_form_applies(model, *p))
    return max((deviation(sdli2(*pair), scenario.start.fold(pair).snapshot(Rule.SDLI))
                for pair in pairs), default=None)


# verify's checks in output order: name -> (tolerance, check).  Each is
# called as check(scenario, rule, trials, seed) and returns its worst
# deviation, or None when it has nothing to compare.
CHECKS = {
    "permutation": (1e-9, _check_permutation),
    "markov": (1e-12, _check_markov),
    "vbf": (1e-12, _check_vbf),
    "eq7": (1e-12, _check_eq7),
}


def cmd_verify(scenario: Scenario, rule: Rule, checks: list[str], trials: int, seed: int) -> int:
    lines = []
    all_passed = True
    for name, (tolerance, check) in CHECKS.items():
        if name not in checks:
            continue
        worst = check(scenario, rule, trials, seed)
        if worst is None:
            lines.append(f"SKIP {name}")
            continue
        passed = worst <= tolerance
        all_passed &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name} deviation={worst:.3e}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _parse_checks(raw: str) -> list[str]:
    checks = [c.strip() for c in raw.split(",") if c.strip()]
    for c in checks:
        if c not in CHECKS:
            raise ValidationError(
                f"--checks: unknown check {c!r} (choose from {', '.join(CHECKS)})"
            )
    if not checks:
        raise ValidationError("--checks: need at least one check")
    return checks


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``evfuse`` argument parser, built on the first call and shared
    by every later one; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="evfuse",
        description="Combine belief sources from a scenario file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rule_names = [r.value for r in Rule]

    def common(p, output=False):
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--rule", choices=rule_names, default=None,
                       help="override the scenario's rule")
        if output:
            p.add_argument("--output", choices=("table", "json"), default="table")

    p_fuse = sub.add_parser("fuse", help="fuse all sources, print one snapshot")
    common(p_fuse, output=True)

    p_stream = sub.add_parser("stream", help="print a snapshot after every source")
    common(p_stream, output=True)

    p_verify = sub.add_parser("verify", help="run order-invariance and consistency checks")
    common(p_verify)
    p_verify.add_argument("--checks", default=",".join(CHECKS),
                          help="comma-separated subset of: " + ", ".join(CHECKS))
    p_verify.add_argument("--trials", type=int, default=100,
                          help="sampled orderings when the full set is too large")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for sampled orderings")
    return parser


def main(argv=None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    except AttributeError:  # non-standard streams under test harnesses
        pass
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        rule = Rule(args.rule) if args.rule else scenario.rule
        if args.command == "fuse":
            return cmd_fuse(scenario, rule, args.output)
        if args.command == "stream":
            return cmd_stream(scenario, rule, args.output)
        if args.trials < 1:
            raise ValidationError("--trials: must be at least 1")
        return cmd_verify(scenario, rule, _parse_checks(args.checks), args.trials, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TotalConflictError as exc:
        print(f"rule error: {exc}", file=sys.stderr)
        return EXIT_RULE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
