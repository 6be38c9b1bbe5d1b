"""The benchmark's seams stay reachable.

``perfbench/spans.py`` replaces names where evfuse looks them up at call
time (module globals such as ``rules.transfer_dempster``, class
attributes such as ``FusionState.fuse``) with wrappers that count calls.
A caller that bound one of those names early would bypass its wrapper,
and that layer's per-layer metrics would read 0 without any error.  This
test runs every command under every rule with the benchmark's own
instrumentation installed, and checks which seams saw a call.  It reads
``spans.py`` and never edits it.
"""

import importlib.util
from pathlib import Path

from evfuse import Rule, cli

from support import SCENARIO_DIR

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
FOUR = str(SCENARIO_DIR / "four_sources.json")

# Wrapped Proposition methods that no command calls any more: the engine
# routes conflicts through Frame._route and renders through Frame._text.
UNREACHED = {"lattice.minimal_minterms", "lattice.conflict_parties",
             "lattice.atoms_union", "lattice.text"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_seam_sees_a_call(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    seams = []
    install = tracer.install

    def recording_install(owner, attr, name, *extra):
        seams.append(name)
        install(owner, attr, name, *extra)

    tracer.install = recording_install
    codes = []
    try:
        spans.instrument(tracer)
        tracer.begin_op(0)
        for rule in Rule:
            for command in ("fuse", "stream", "verify"):
                codes.append(cli.main([command, FOUR, "--rule", rule.value]))
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * (3 * len(Rule))
    calls = {name: tracer.counts[name + ".calls"] for name in seams}
    assert UNREACHED <= set(calls)
    assert sorted(name for name, n in calls.items() if n == 0 and name not in UNREACHED) == []
    # ROADMAP item 26, the seam refresh, rewires these four seams to
    # Frame._route and Frame._text, as the CHANGES.md FOUND: lines on
    # spans.instrument's Proposition seams ask; that change flips this assertion.
    assert {name: calls[name] for name in UNREACHED} == dict.fromkeys(UNREACHED, 0)
