"""Scenario-driven command line: batch fusion, streaming, and checks.

Scenarios are single JSON documents naming a frame, a model, an ordered
list of sources (proposition expression -> mass), and a rule.  Output is
deterministic: fixed sort order, fixed 6-decimal table formatting, and
full-precision JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from .engine import FusionState, oracle_conjunctive
from .errors import TotalConflictError, ValidationError
from .lattice import Frame, Model, make_model
from .mass import MassFunction, deviation, vbf
from .rules import Rule, sdli2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RULE_ERROR = 3

CHECKS = ("permutation", "markov", "vbf", "eq7")
CHECK_TOLERANCES = {"permutation": 1e-9, "markov": 1e-12, "vbf": 1e-12, "eq7": 1e-12}
ORDERINGS_CAP = 720


class ScenarioError(ValidationError):
    """Scenario file rejected; the message names the offending field."""


@dataclass
class Scenario:
    model: Model
    sources: list[tuple[str, MassFunction]]
    rule: Rule
    prune_epsilon: float


def _fail(field: str, problem: str):
    raise ScenarioError(f"{field}: {problem}")


def _reject_unknown(obj: dict, known: set[str], prefix: str, what: str):
    for key in obj:
        if key not in known:
            _fail(f"{prefix}{key}", f"unknown {what} field")


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        _fail("scenario", "top level must be a JSON object")

    atoms = doc.get("frame")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        _fail("frame", "must be a list of atom names")
    try:
        frame = Frame(tuple(atoms))
    except ValidationError as exc:
        _fail("frame", str(exc))

    model_spec = doc.get("model", "free")
    if isinstance(model_spec, dict):
        _reject_unknown(model_spec, {"exclusive_pairs"}, "model.", "model")
        pairs = model_spec.get("exclusive_pairs")
        if not isinstance(pairs, list):
            _fail("model.exclusive_pairs", "must be a list of atom pairs")
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(a, str) for a in pair)):
                _fail(f"model.exclusive_pairs[{i}]", "must be a pair of atom names")
        try:
            model = Model.with_exclusions(frame, [tuple(p) for p in pairs])
        except ValidationError as exc:
            _fail("model.exclusive_pairs", str(exc))
    elif model_spec in ("free", "exclusive"):
        model = make_model(frame, model_spec)
    else:
        _fail("model", f"must be 'free', 'exclusive', or an exclusive_pairs object, got {model_spec!r}")

    rule_name = doc.get("rule")
    try:
        rule = Rule(rule_name)
    except ValueError:
        _fail("rule", f"unknown rule {rule_name!r} (choose from {', '.join(r.value for r in Rule)})")

    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        _fail("sources", "must be a non-empty list")
    sources: list[tuple[str, MassFunction]] = []
    for i, entry in enumerate(raw_sources):
        if not isinstance(entry, dict):
            _fail(f"sources[{i}]", "must be an object with 'name' and 'masses'")
        _reject_unknown(entry, {"name", "masses"}, f"sources[{i}].", "source")
        name = entry.get("name", f"source_{i + 1}")
        if not isinstance(name, str):
            _fail(f"sources[{i}].name", "must be a string")
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
        sources.append((name, mass))

    prune = doc.get("prune_epsilon", 0.0)
    if not isinstance(prune, (int, float)) or isinstance(prune, bool) or not 0.0 <= prune < 1.0:
        _fail("prune_epsilon", f"must be a number in [0, 1), got {prune!r}")

    _reject_unknown(doc, {"frame", "model", "rule", "sources", "prune_epsilon"}, "", "scenario")

    return Scenario(model, sources, rule, float(prune))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ScenarioError(f"{path}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(doc)


def _initial(scenario: Scenario) -> FusionState:
    return FusionState.initial(scenario.model, scenario.prune_epsilon)


def _rows(mass_like) -> list[tuple[str, float]]:
    rows = [(p.text(), v) for p, v in mass_like.items()]
    rows.sort(key=lambda r: r[0])
    return rows


def _table(rows: list[tuple[str, float]]) -> list[str]:
    return [f"{expr}={value:.6f}" for expr, value in rows]


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def cmd_fuse(scenario: Scenario, rule: Rule, output: str) -> int:
    state = _initial(scenario).fold(m for _, m in scenario.sources)
    snapshot = state.snapshot(rule)
    conflict = state.accumulator.conflict_mass()
    rows = _rows(snapshot)
    if output == "json":
        _emit_json({"rule": rule.value, "conflict": conflict, "masses": dict(rows)})
    else:
        _emit([f"rule: {rule.value}", f"conflict: {conflict:.6f}", *_table(rows)])
    return EXIT_OK


def cmd_stream(scenario: Scenario, rule: Rule, output: str) -> int:
    state = _initial(scenario)
    steps = []
    for name, mass in scenario.sources:
        state = state.fuse(mass)
        steps.append(
            (name, state.accumulator.conflict_mass(), _rows(state.snapshot(rule)))
        )
    if output == "json":
        payload = {
            "rule": rule.value,
            "steps": [
                {"source": name, "conflict": conflict, "masses": dict(rows)}
                for name, conflict, rows in steps
            ],
            "conflict": steps[-1][1],
            "masses": dict(steps[-1][2]),
        }
        _emit_json(payload)
    else:
        lines = [f"rule: {rule.value}"]
        for i, (name, conflict, rows) in enumerate(steps, start=1):
            lines.append(f"step {i}: {name}")
            lines.append(f"conflict: {conflict:.6f}")
            lines.extend(_table(rows))
        _emit(lines)
    return EXIT_OK


def _orderings(count: int, trials: int, seed: int):
    if math.factorial(count) <= ORDERINGS_CAP:
        return list(permutations(range(count)))
    rng = random.Random(seed)
    orders = [tuple(range(count))]
    for _ in range(trials):
        order = list(range(count))
        rng.shuffle(order)
        orders.append(tuple(order))
    return orders


def _worst_refold(scenario: Scenario, rule: Rule, source_lists) -> float:
    """Largest deviation of a refold of each source list from the
    scenario's own snapshot.

    The state after a prefix depends on that prefix alone, so each list
    is refolded only from the first source (by identity) where it leaves
    the previous list; ``states[k]`` holds the state after k sources.
    """
    baseline = _initial(scenario).fold(m for _, m in scenario.sources).snapshot(rule)
    states, previous, worst = [_initial(scenario)], [], 0.0
    for masses in source_lists:
        masses = list(masses)
        k = 0
        while k < min(len(masses), len(previous)) and masses[k] is previous[k]:
            k += 1
        del states[k + 1:]
        for m in masses[k:]:
            states.append(states[-1].fuse(m))
        previous = masses
        worst = max(worst, deviation(states[-1].snapshot(rule), baseline))
    return worst


def _check_permutation(scenario: Scenario, rule: Rule, trials: int, seed: int) -> float | None:
    masses = [m for _, m in scenario.sources]
    if len(masses) < 2:
        return None  # one source has one ordering, the scenario's own
    orders = _orderings(len(masses), trials, seed)
    return _worst_refold(scenario, rule, ([masses[i] for i in order] for order in orders))


def _check_markov(scenario: Scenario) -> float | None:
    masses = [m for _, m in scenario.sources]
    if len(masses) < 2:
        return None  # no prefix of two or more sources to compare
    worst = 0.0
    state = _initial(scenario)
    for k, mass in enumerate(masses, start=1):
        state = state.fuse(mass)
        if k >= 2:
            worst = max(
                worst, deviation(state.accumulator, oracle_conjunctive(masses[:k]))
            )
    return worst


def _check_vbf(scenario: Scenario, rule: Rule) -> float:
    masses = [m for _, m in scenario.sources]
    neutral = [vbf(scenario.model)]
    padded = (masses[:k] + neutral + masses[k:] for k in range(len(masses) + 1))
    return _worst_refold(scenario, rule, padded)


def _check_eq7(scenario: Scenario) -> float | None:
    pairs = combinations([m for _, m in scenario.sources], 2)
    return max((deviation(sdli2(*pair), _initial(scenario).fold(pair).snapshot(Rule.SDLI))
                for pair in pairs), default=None)


def cmd_verify(scenario: Scenario, rule: Rule, checks: list[str], trials: int, seed: int) -> int:
    lines = []
    all_passed = True
    for check in CHECKS:
        if check not in checks:
            continue
        if check == "permutation":
            worst = _check_permutation(scenario, rule, trials, seed)
        elif check == "markov":
            worst = _check_markov(scenario)
        elif check == "vbf":
            worst = _check_vbf(scenario, rule)
        else:
            worst = _check_eq7(scenario)
        if worst is None:  # the check had nothing to compare
            lines.append(f"SKIP {check}")
            continue
        passed = worst <= CHECK_TOLERANCES[check]
        all_passed &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {check} deviation={worst:.3e}")
    _emit(lines)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _parse_checks(raw: str) -> list[str]:
    checks = [c.strip() for c in raw.split(",") if c.strip()]
    for c in checks:
        if c not in CHECKS:
            raise ScenarioError(
                f"--checks: unknown check {c!r} (choose from {', '.join(CHECKS)})"
            )
    if not checks:
        raise ScenarioError("--checks: need at least one check")
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
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
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
            raise ScenarioError("--trials: must be at least 1")
        return cmd_verify(scenario, rule, _parse_checks(args.checks), args.trials, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TotalConflictError as exc:
        print(f"rule error: {exc}", file=sys.stderr)
        return EXIT_RULE_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
