"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks the printed result against BENCHMARK.json and checks that the
correctness gate counts broken outputs (a flipped verdict, a changed CLI
byte, a wrong exit code, a raising call) as failures.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import unittest

import reference
from run import BENCHMARK, ROOT, _import_library, scaled_latencies

_import_library()

import reciprodick as R  # noqa: E402 (needs the library on sys.path)
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads(BENCHMARK.read_text())


def toy(cls):
    return cls("toy", W.load_pins())


def failures(workload, calls) -> tuple[int, int]:
    res = workload.run_pass(calls)
    return res.attempted, res.failed


class ResultSchema(unittest.TestCase):
    def run_bench(self, name: str, trace: int) -> dict:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
               "--seconds", "0.2", "--trace", str(trace), "--size", "toy"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_and_mode(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(W.WORKLOADS))
        for name in W.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = self.run_bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(set(result["metrics"]), set(units))
                    for metric, entry in result["metrics"].items():
                        self.assertEqual(set(entry), {"value", "unit"})
                        self.assertEqual(entry["unit"], units[metric])
                        self.assertIsInstance(entry["value"], (int, float))
                        self.assertNotIsInstance(entry["value"], bool)


class Predictions(unittest.TestCase):
    def test_table_names_every_per_layer_metric(self):
        table = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
        self.assertEqual(set(table["workloads"]), set(W.WORKLOADS))
        named = [m for row in table["predictions"] for m in row["per_layer"]]
        layer = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
        self.assertEqual(set(named), layer)
        moved = {m for row in table["predictions"] for m in row["should_move"]}
        self.assertLessEqual(moved, {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"})


class Gate(unittest.TestCase):
    def test_clean_pass(self):
        for cls in W.WORKLOADS.values():
            attempted, failed = failures(toy(cls), toy(cls).calls(W.DEFAULT_SEED))
            self.assertGreater(attempted, 0)
            self.assertEqual(failed, 0, cls.name)

    def flip(self, call, pick):
        run = call.run
        call.run = lambda: [dataclasses.replace(v, observed=not v.observed) if pick(v) else v
                            for v in run()]

    def test_flipped_verdict_fails(self):
        wl = toy(W.ScanZ)
        calls = wl.calls(5)
        self.flip(calls[0], lambda v: v.spec.k == 0)
        self.assertGreater(failures(wl, calls)[1], 0)

    def test_flipped_finding_fails(self):
        wl = toy(W.ScanZ)
        calls = wl.calls(5)
        call = next(c for c in calls if c.group == "T2_3" and 4 in {k[2] for k in c.keys})
        self.flip(call, lambda v: v.spec.n == 4 and v.spec.k == 5 and v.spec.family == "g")
        self.assertEqual(failures(wl, calls)[1], 1)

    def test_dropped_verdict_fails(self):
        wl = toy(W.ScanFp)
        calls = wl.calls(5)
        run = calls[0].run
        calls[0].run = lambda: run()[1:]
        self.assertEqual(failures(wl, calls)[1], 1)

    def test_code_disagreement_fails(self):
        wl = toy(W.Field)
        calls = wl.calls(5)
        call = next(c for c in calls if c.group.startswith("code") and wl.pins["codes"][c.group])
        run = call.run
        call.run = lambda: [(not rev, enum) for rev, enum in run()]
        self.assertGreater(failures(wl, calls)[1], 0)

    def test_raising_call_fails(self):
        wl = toy(W.Field)
        calls = wl.calls(5)

        def boom():
            raise R.CapacityError("over the cap")

        calls[0].run = boom
        attempted, failed = failures(wl, calls)
        self.assertEqual(failed, len(calls[0].keys) or wl.pins["codes"][calls[0].group])

    def test_changed_cli_byte_fails(self):
        for seed in (W.DEFAULT_SEED, 7):
            wl = toy(W.Cli)
            calls = wl.calls(seed)
            call = next(c for c in calls if c.group == "coterm")
            run = call.run

            def changed():
                rc, text = run()
                return rc, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

            call.run = changed
            self.assertGreater(failures(wl, calls)[1], 0, seed)

    def test_wrong_exit_code_fails(self):
        wl = toy(W.Cli)
        calls = wl.calls(5)
        call = next(c for c in calls if c.expect_rc == 2)
        run = call.run
        call.run = lambda: (0, run()[1])
        self.assertGreater(failures(wl, calls)[1], 0)

    def test_reordered_cli_output_fails_only_at_default_seed(self):
        for seed, expect in ((W.DEFAULT_SEED, 1), (7, 0)):
            wl = toy(W.Cli)
            calls = wl.calls(seed)
            calls[0], calls[1] = calls[1], calls[0]
            self.assertEqual(failures(wl, calls)[1], expect, seed)


class Splitting(unittest.TestCase):
    def test_windows_partition_the_range(self):
        ns = list(range(2, 61, 2))
        for seed in range(20):
            for width in (1, 2, 5):
                ws = W.windows(ns, width, random.Random(seed))
                self.assertEqual([n for w in ws for n in w], ns)
                self.assertTrue(all(width <= len(w) < 2 * width for w in ws))

    def test_seed_changes_calls_not_coverage(self):
        for cls in W.WORKLOADS.values():
            a, b = toy(cls).calls(1), toy(cls).calls(2)
            self.assertNotEqual([c.label for c in a], [c.label for c in b])
            self.assertEqual(sorted(k for c in a for k in c.keys), sorted(k for c in b for k in c.keys))


class Scaling(unittest.TestCase):
    def test_gauge_brackets_every_call(self):
        wl = toy(W.ScanFp)
        ticks = iter(range(1, 10**6))
        res = wl.run_pass(wl.calls(5), gauge=lambda: float(next(ticks)), every_s=0)
        # a sample before the first call and after each call: call i sits between samples i and i+1
        self.assertEqual(res.ref_s, [i + 1.5 for i in range(len(res.latencies))])
        self.assertEqual(res.failed, 0)

    def test_sparse_samples_bracket_every_call(self):
        wl = toy(W.ScanFp)
        samples = []
        res = wl.run_pass(wl.calls(5), gauge=lambda: samples.append(0) or float(len(samples)), every_s=3600)
        self.assertEqual(len(samples), 2)  # before the first call and after the last
        self.assertEqual(res.ref_s, [1.5] * len(res.latencies))

    def test_scaled_latency(self):
        res = W.PassResult(latencies=[0.5, 0.1], ref_s=[reference.NOMINAL_S, 2 * reference.NOMINAL_S])
        self.assertEqual(scaled_latencies(res), [0.5, 0.05])


class Tracing(unittest.TestCase):
    def test_install_and_uninstall(self):
        before = R.classifier.build, R.Poly.__mul__, R.families.binomial
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(R.classifier.build, before[0])
            R.scan("T2_1", n_min=4, n_max=4, k_values=[0])
        finally:
            tracer.uninstall()
        self.assertEqual((R.classifier.build, R.Poly.__mul__, R.families.binomial), before)
        m = tracer.metrics(1)
        self.assertEqual(m["classifier.scan.calls"], 1)
        self.assertEqual(m["families.build.calls"], 1)
        self.assertEqual(m["classifier.verdicts"], 1)
        self.assertGreater(m["binomics.binomial.calls"], 0)
        self.assertLessEqual(m["families.build.self_s"], m["families.build.s"])
        self.assertEqual(tracer.missing, [])


if __name__ == "__main__":
    unittest.main()
