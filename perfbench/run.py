"""Layered benchmark for evfuse.

    python3 perfbench/run.py --workload stream|wide_batch|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports evfuse from the
checkout's ``src`` directory and drives it through its public API and
``evfuse.cli.main`` in this one process, one thread, in a closed loop
(each operation starts when the previous one has returned).  It runs
whole cycles of a workload until ``--seconds`` have passed and checks
every output, untimed.  A failed operation is one that raised, exited
with a wrong code, or gave an output that failed its check.

Every cycle repeats the same operations.  Each latency is scaled to the
unloaded machine by the probe in ``probe.py``, timed between operations,
and each operation's median over the cycles (at least MIN_CYCLES of
them) counts: ``latency_p50_ms`` is the median of these and
``throughput_ops_s`` is the operations of a cycle over their sum.  Tail
percentiles in the report come from all scaled samples and appear only
with ten samples beyond them.  ``setup_s`` is the median in-child time
to import evfuse and evfuse.cli in fresh interpreters, each scaled by a
probe run in the same child.  The report also gives the unscaled
figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same cycles untraced and then traced, and reports per-layer self times
and counts from spans recorded around the calls into each evfuse module
(see ``spans.py``); the spans go to ``perfbench/out/<workload>.spans.tsv``.
Per-layer times are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a fuller report: every metric the sample supports, the failure
counts by kind, and the sample sizes.  Without the program in the
checkout the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("stream", "wide_batch", "verify")
STARTUP_EVERY_S = 2.0  # time between start-up samples, taken between cycles
STARTUP_SAMPLES = 9  # start-up samples in a run, at least
MIN_TAIL = 10  # samples that must lie beyond a reported tail percentile
MIN_CYCLES = 3  # repeats of each operation; its median over them counts
PROBE_EVERY_S = 0.25  # time between machine-speed probes

# End-to-end metrics in the result line; the fuller report adds the
# tail percentiles the sample supports and the error rate.
END_TO_END = ("latency_p50_ms", "throughput_ops_s", "peak_rss_mb", "setup_s")


def import_program():
    """Import evfuse from the checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "evfuse" / "__init__.py").is_file():
        print(f"perfbench: no evfuse package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import evfuse
    import evfuse.cli  # noqa: F401

    if Path(evfuse.__file__).resolve().parent != src / "evfuse":
        print(f"perfbench: imported evfuse from {evfuse.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return evfuse


_IMPORT_CHILD = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; import probe; "
    "t = time.perf_counter(); import evfuse, evfuse.cli; t = time.perf_counter() - t; "
    "print(repr(t * probe.REF_S / probe.seconds()))"
)


class Startup:
    """Start-up times sampled in fresh child processes: the in-child
    import time of evfuse and evfuse.cli, scaled by the probe run right
    after it in the same child, and the wall time of a bare interpreter,
    scaled by the run's machine scale.  Samples are taken between
    cycles, so that they spread over the run like the operations do."""

    def __init__(self):
        self.code = _IMPORT_CHILD.format(src=str(ROOT / "src"), here=str(HERE))
        self.imports, self.bare = [], []
        self.last = -math.inf
        self._child()  # warm-up: writes the bytecode cache

    def _child(self):
        done = subprocess.run([sys.executable, "-I", "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    def sample(self):
        self.imports.append(self._child())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=ROOT, timeout=60, check=True)
        self.bare.append(perf_counter() - t0)
        self.last = perf_counter()

    def tick(self):
        if perf_counter() - self.last >= STARTUP_EVERY_S:
            self.sample()

    def medians(self):
        """Median import and interpreter times, topped up to
        STARTUP_SAMPLES samples."""
        while len(self.imports) < STARTUP_SAMPLES:
            self.sample()
        return statistics.median(self.imports), statistics.median(self.bare)


class Machine:
    """How fast the shared machine runs this process right now: the
    probe is timed every PROBE_EVERY_S between operations, and
    ``scale()`` is its reference time over the median of the last three
    probes.  A latency times the scale reads as on the unloaded machine,
    so runs made in slow and fast phases compare."""

    def __init__(self):
        self.probes = [probe.seconds()]
        self.last = perf_counter()

    def tick(self):
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe.seconds())
            self.last = perf_counter()

    def scale(self):
        return probe.REF_S / statistics.median(self.probes[-3:])

    def run_scale(self):
        return probe.REF_S / statistics.median(self.probes)


def make_workload(name, evfuse, seed):
    if name == "stream":
        return workloads.Stream(evfuse, seed)
    if name == "wide_batch":
        return workloads.WideBatch(evfuse, seed, OUT)
    return workloads.Verify(evfuse, seed, OUT, ROOT)


class Tally:
    """Latencies and failures of the operations of one phase."""

    def __init__(self):
        self.cycles = []  # one list of op latencies (s) per cycle
        self.scaled = []  # the same, times the machine scale at the time
        self.failures = Counter()  # kind -> count
        self.wrong = 0  # outputs that failed a check
        self.examples = {}

    @property
    def attempted(self):
        return sum(map(len, self.cycles))

    def per_op(self):
        """Each operation's median scaled latency over the cycles, which
        all repeat the same operations."""
        return [statistics.median(times) for times in zip(*self.scaled)]

    @property
    def failed(self):
        return sum(self.failures.values())

    def fail(self, kind, message):
        self.failures[kind] += 1
        self.examples.setdefault(kind, message)


def run_cycles(workload, machine, seconds=0.0, min_cycles=MIN_CYCLES, tracer=None,
               after_cycle=None):
    """Run whole cycles until ``seconds`` have passed and at least
    ``min_cycles`` are done.  ``after_cycle()`` runs untimed after each."""
    tally = Tally()
    start = perf_counter()
    op_id = 0
    while True:
        latencies, scaled = [], []
        tally.cycles.append(latencies)
        tally.scaled.append(scaled)
        for op, check in workload.cycle():
            if tracer is not None:
                tracer.begin_op(op_id)
            op_id += 1
            t0 = perf_counter()
            try:
                output, error = op(), None
            except Exception as exc:  # a failed operation; the run goes on
                output, error = None, exc
            finally:
                latencies.append(perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
            before = machine.scale()
            machine.tick()
            scaled.append(latencies[-1] * (before + machine.scale()) / 2)
            if error is not None:
                tally.fail(type(error).__name__, "".join(traceback.format_exception_only(error)))
            elif problem := check(output):
                tally.wrong += 1
                tally.fail("wrong output", problem)
        for problem in workload.finish():
            tally.wrong += 1
            tally.fail("wrong output", problem)
        if after_cycle is not None:
            after_cycle()
        if len(tally.cycles) >= min_cycles and perf_counter() - start >= seconds:
            return tally


def percentile(sorted_values, p):
    """Nearest-rank percentile, or None when fewer than MIN_TAIL samples
    lie beyond it."""
    n = len(sorted_values)
    rank = math.ceil(p / 100 * n)
    if n - rank < MIN_TAIL:
        return None
    return sorted_values[rank - 1]


def end_to_end(tally, setup_s):
    per_op = tally.per_op()
    report = {
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "throughput_ops_s": (len(per_op) / math.fsum(per_op), "1/s"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    scaled = sorted(t for cycle in tally.scaled for t in cycle)
    for p in (90, 99):
        value = percentile(scaled, p)
        if value is not None:
            report[f"latency_p{p}_ms"] = (value * 1e3, "ms")
    # the same figures unscaled, for reference
    raw = [statistics.median(times) for times in zip(*tally.cycles)]
    report["raw.latency_p50_ms"] = (statistics.median(raw) * 1e3, "ms")
    report["raw.throughput_ops_s"] = (len(raw) / math.fsum(raw), "1/s")
    return report


def run(workload_name, seed, seconds, trace):
    evfuse = import_program()
    OUT.mkdir(exist_ok=True)
    startup = Startup()
    workload = make_workload(workload_name, evfuse, seed)
    machine = Machine()
    if trace:
        plain = run_cycles(workload, machine, seconds=seconds / 2, min_cycles=1,
                           after_cycle=startup.tick)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            tally = run_cycles(workload, machine, min_cycles=len(plain.cycles), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"{workload_name}.spans.tsv")
        report = spans.layer_metrics(tracer, tally.attempted)
        report["trace.overhead_ratio"] = (
            math.fsum(tally.per_op()) / math.fsum(plain.per_op()), "ratio")
        import_s, interpreter_s = startup.medians()
        report["startup.interpreter_s"] = (interpreter_s * machine.run_scale(), "s")
        report["startup.import_s"] = (import_s, "s")
        result_names = list(report)
        report["error_rate"] = (tally.failed / tally.attempted, "ratio")
        wrong = plain.wrong + tally.wrong
    else:
        tally = run_cycles(workload, machine, seconds=seconds, after_cycle=startup.tick)
        report = end_to_end(tally, startup.medians()[0])
        result_names = list(END_TO_END)
        wrong = tally.wrong
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()}
    print(json.dumps({
        "workload": workload_name, "seed": seed, "trace": int(trace), "cycles": len(tally.cycles),
        "samples": tally.attempted, "failures": dict(tally.failures),
        "machine_scale": machine.run_scale(), "report": metrics,
    }))
    for kind, message in tally.examples.items():
        print(f"perfbench: {tally.failures[kind]} x {kind}, first: {message.strip()}",
              file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: metrics[name] for name in result_names},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
