"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that each workload's output check flags a corrupted result, that
tail percentiles appear only with ten samples beyond them, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EVFUSE = run.import_program()

# Tiny inputs: short stream lines, a few 8-atom requests, one scenario.
gen.STREAM_SOURCES = 6
gen.WIDE_SLOTS = [(8, 2, (2, 3), "exclusive", "sdli"), (8, 3, (2, 4), "ring", "smets"),
                  (8, 2, (2, 3), "free", "dempster")]
gen.VERIFY_SLOTS = [(4, 4, (2, 3), "exclusive", "sdli")]


def capture(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.run(workload, seed=1, seconds=0.0, trace=trace)
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class ResultLines(unittest.TestCase):
    def test_every_named_metric_has_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    report, result = capture(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    self.assertIn("error_rate", report["report"])

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))


class CorruptedOutputs(unittest.TestCase):
    def first_output(self, workload):
        op, check = next(iter(workload.cycle()))
        output = op()
        self.assertIsNone(check(output))
        return output, check

    def test_stream(self):
        stream = workloads.Stream(EVFUSE, 1)
        dempster = next(line for line in stream.lines if line.rule == "dempster")
        stream.lines = [dempster]
        snapshot, _ = self.first_output(stream)
        masses = workloads.as_bits(snapshot)
        constrained = dempster.model.constrained
        check = workloads.check_distribution
        self.assertIsNone(check(masses, constrained, "dempster"))
        key = next(iter(masses))
        self.assertIsNotNone(check({**masses, key: masses[key] + 1e-6}, constrained, "dempster"))
        self.assertIsNotNone(check({**masses, key: -masses[key]}, constrained, "dempster"))
        moved = {**masses, key: masses[key] / 2, constrained: masses[key] / 2}
        self.assertIsNotNone(check(moved, constrained, "dempster"))
        self.assertIsNone(check(moved, constrained, "smets"))
        # the end-of-cycle refold check
        for op, _ in stream.cycle():
            op()
        self.assertEqual(stream.finish(), [])
        kind, want = stream.refolds[0]
        stream.refolds[0] = kind, {k: v * (1 + 1e-8) for k, v in want.items()}
        self.assertEqual(len(stream.finish()), 1)
        stream.refolds[0] = "TotalConflictError", None  # only the refold raised
        self.assertEqual(len(stream.finish()), 1)

    def test_wide_batch(self):
        batch = workloads.WideBatch(EVFUSE, 1, run.OUT)
        (code, text), check = self.first_output(batch)
        payload = json.loads(text)
        key = next(iter(payload["masses"]))
        self.assertIsNotNone(check((3, text)))
        payload["masses"][key] += 1e-6
        self.assertIsNotNone(check((0, json.dumps(payload))))
        payload["masses"][key] -= 1e-6
        payload["masses"]["(" + key] = payload["masses"].pop(key)
        self.assertIsNotNone(check((0, json.dumps(payload))))
        # 2-source sdli results must match the closed formula to 1e-12
        parse, open_world, reference = batch._checker(0)
        self.assertIsNotNone(reference)
        shifted = {k: v + (1e-9 if i == 0 else -1e-9) for i, (k, v) in enumerate(reference.items())}
        self.assertIsNotNone(workloads.compare(shifted, reference, workloads.SDLI2_TOL))

    def test_verify(self):
        verify = workloads.Verify(EVFUSE, 1, run.OUT, run.ROOT)
        (code, text), check = self.first_output(verify)
        self.assertIsNotNone(check((1, text)))
        self.assertIsNotNone(check((0, text.replace("PASS", "FAIL", 1))))
        self.assertIsNotNone(check((0, "\n".join(text.splitlines()[:-1]))))


class TailPercentiles(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 90))
        self.assertEqual(run.percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.percentile(list(range(999)), 99))
        self.assertEqual(run.percentile(list(range(1000)), 99), 989)

    def test_report_prints_only_supported_tails(self):
        for samples, present in ((99, set()), (100, {"latency_p90_ms"}),
                                 (1000, {"latency_p90_ms", "latency_p99_ms"})):
            tally = run.Tally()
            tally.cycles = tally.scaled = [[0.001 * (i + 1) for i in range(samples)]]
            report = run.end_to_end(tally, 0.01)
            self.assertEqual({k for k in report if k.startswith("latency_p9")}, present)


class WithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
