"""In-memory span tracing around calls into evfuse's modules.

:meth:`Tracer.install` replaces a name where its caller looks it up (a module
global such as ``evfuse.engine.conjunctive``, or a class attribute such
as ``FusionState.fuse``) with a wrapper that records a span: name,
start, end, parent span and operation id.  Spans are kept in a list and
written out once the run ends.  A wrapper records nothing outside an
operation, so untimed output checks are not traced.

A span's self time is its duration minus the time its child spans
cover.  Work the wrappers do to count things (products, parties, state
size) is recorded as a ``trace.count`` child span, so it is taken out of
the caller's self time.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

LAYERS = ("lattice", "mass", "rules", "engine", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = Counter()
        self.maxima = Counter()
        self.stack = []
        self.op = None
        self._restore = []

    # --- operations -------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self.spans.append(None)
        self.stack = [len(self.spans) - 1]
        self._op_start = perf_counter()

    def end_op(self):
        index = self.stack.pop()
        self.spans[index] = ("op", self._op_start, perf_counter(), -1, self.op)
        self.op = None

    # --- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, count=None, errors=()):
        """Wrap ``fn`` in a span called ``name``.

        ``count(tracer, args, result)`` runs after the span closes;
        exceptions of the ``errors`` types are tallied as ``name:Type``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            tracer.spans.append(None)
            index = len(tracer.spans) - 1
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors as exc:
                tracer.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                tracer.counts[name + ".calls"] += 1
            if count is not None:
                c0 = perf_counter()
                count(tracer, args, result)
                tracer.spans.append(("trace.count", c0, perf_counter(), parent, tracer.op))
            return result

        return traced

    def install(self, owner, attr, name, count=None, errors=()):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, errors))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


# --- evfuse instrumentation ---------------------------------------------------


def _terms(x) -> int:
    # conjunctive operands are stored results (``terms``) or mass functions
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else len(x)


def _count_conjunctive(tracer, args, result):
    tracer.counts["rules.conjunctive.products"] += _terms(args[0]) * _terms(args[1])
    tracer.counts["rules.conjunctive.outputs"] += len(result.terms)


def _count_parties(tracer, args, result):
    tracer.counts["lattice.parties"] += len(result)


def _count_state(tracer, args, result):
    state = args[0]
    terms = state.accumulator.terms
    visible = ~state.model.constrained
    tracer.counts["engine.state_terms"] += len(terms)
    tracer.counts["engine.conflict_terms"] += sum(1 for p in terms if not p.bits & visible)
    tracer.maxima["engine.state_terms"] = max(tracer.maxima["engine.state_terms"], len(terms))


def _count_oracle(tracer, args, result):
    products = 1
    for m in args[0]:
        products *= len(m)
    tracer.counts["engine.oracle.products"] += products


def instrument(tracer):
    """Wrap the public entry points of every evfuse module, each where
    its caller looks the name up."""
    from evfuse import cli, engine, lattice, mass, rules
    from evfuse.errors import TotalConflictError, ValidationError

    prop, state = lattice.Proposition, engine.FusionState
    table = [
        (lattice.Frame, "parse", "lattice.parse"),
        (lattice.Model, "__init__", "lattice.model"),
        (prop, "minimal_minterms", "lattice.minimal_minterms"),
        (prop, "conflict_parties", "lattice.conflict_parties", _count_parties),
        (prop, "atoms_union", "lattice.atoms_union"),
        (prop, "text", "lattice.text"),
        (mass.MassFunction, "__init__", "mass.validate", None, (ValidationError,)),
        (mass.ColumnSums, "add", "mass.columns_add"),
        (cli, "deviation", "mass.deviation"),
        (engine, "conjunctive", "rules.conjunctive", _count_conjunctive),
        (engine, "apply_transfer", "rules.apply_transfer"),
        (rules, "transfer_dempster", "rules.transfer.dempster", None, (TotalConflictError,)),
        (rules, "transfer_smets", "rules.transfer.smets"),
        (rules, "transfer_yager", "rules.transfer.yager"),
        (rules, "transfer_union", "rules.transfer.union"),
        (rules, "transfer_sdli", "rules.transfer.sdli"),
        (cli, "sdli2", "rules.sdli2"),
        (state, "fuse", "engine.fuse"),
        (state, "snapshot", "engine.snapshot", _count_state),
        (cli, "oracle_conjunctive", "engine.oracle", _count_oracle),
        (cli, "load_scenario", "cli.load"),
        (cli, "cmd_fuse", "cli.command"),
        (cli, "cmd_stream", "cli.command"),
        (cli, "cmd_verify", "cli.command"),
    ]
    for owner, attr, name, *extra in table:
        tracer.install(owner, attr, name, *extra)


# (metric, unit, span or counter) for the per-layer report.  Times are
# self times and, like the counts, are given per operation attempted.
SELF_TIMES = [
    ("lattice.model_s", "lattice.model"),
    ("lattice.conflict_parties_s", "lattice.conflict_parties"),
    ("lattice.minimal_minterms_s", "lattice.minimal_minterms"),
    ("lattice.atoms_union_s", "lattice.atoms_union"),
    ("lattice.text_s", "lattice.text"),
    ("lattice.parse_s", "lattice.parse"),
    ("cli.load_s", "cli.load"),
    ("rules.conjunctive_s", "rules.conjunctive"),
    ("rules.transfer.dempster_s", "rules.transfer.dempster"),
    ("rules.transfer.smets_s", "rules.transfer.smets"),
    ("rules.transfer.yager_s", "rules.transfer.yager"),
    ("rules.transfer.union_s", "rules.transfer.union"),
    ("rules.transfer.sdli_s", "rules.transfer.sdli"),
    ("rules.apply_transfer_self_s", "rules.apply_transfer"),
    ("mass.validate_s", "mass.validate"),
    ("mass.columns_add_s", "mass.columns_add"),
    ("engine.fuse_self_s", "engine.fuse"),
    ("engine.oracle_s", "engine.oracle"),
    ("mass.deviation_s", "mass.deviation"),
    ("rules.sdli2_s", "rules.sdli2"),
    ("cli.command_self_s", "cli.command"),
    ("engine.snapshot_self_s", "engine.snapshot"),
]
CALLS = [
    ("lattice.conflict_parties_calls", "lattice.conflict_parties.calls"),
    ("lattice.minimal_minterms_calls", "lattice.minimal_minterms.calls"),
    ("lattice.atoms_union_calls", "lattice.atoms_union.calls"),
    ("lattice.text_calls", "lattice.text.calls"),
    ("lattice.parse_calls", "lattice.parse.calls"),
    ("rules.conjunctive_calls", "rules.conjunctive.calls"),
    ("rules.conjunctive_products", "rules.conjunctive.products"),
    ("engine.oracle_products", "engine.oracle.products"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer metrics of a traced phase of ``ops`` operations, as
    ``{name: (value, unit)}``."""
    self_time = tracer.self_times()
    c = tracer.counts
    out = {name: (self_time[span] / ops, "s/op") for name, span in SELF_TIMES}
    for layer in LAYERS:
        total = sum(t for name, t in self_time.items() if name.startswith(layer + "."))
        out[f"layer.{layer}_s"] = (total / ops, "s/op")
    for name, key in CALLS:
        out[name] = (c[key] / ops, "count/op")
    out["lattice.parties_per_term"] = (
        _ratio(c["lattice.parties"], c["lattice.conflict_parties.calls"]), "count")
    out["rules.conjunctive_merge_ratio"] = (
        1.0 - _ratio(c["rules.conjunctive.outputs"], c["rules.conjunctive.products"])
        if c["rules.conjunctive.products"] else 0.0, "ratio")
    out["engine.state_terms_max"] = (tracer.maxima["engine.state_terms"], "count")
    out["engine.state_terms_mean"] = (
        _ratio(c["engine.state_terms"], c["engine.snapshot.calls"]), "count")
    out["engine.conflict_share"] = (
        _ratio(c["engine.conflict_terms"], c["engine.state_terms"]), "ratio")
    out["rules.total_conflict_errors"] = (
        c["rules.transfer.dempster:TotalConflictError"], "count")
    out["mass.validation_errors"] = (c["mass.validate:ValidationError"], "count")
    return out
