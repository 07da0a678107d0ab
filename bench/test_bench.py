"""Tests of the benchmark's own helpers, not of the library.

    python3 -m unittest discover -s bench -p 'test_*.py'

The determinism test runs each workload traced twice at the minimum pass
count, so the whole file takes about a minute and a half.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

run.use_checkout_src()

import tracing  # noqa: E402
import workloads  # noqa: E402
from companion_bases import companion, intlinalg, quiver, root_system  # noqa: E402


def attribute_snapshot() -> dict:
    """Identity of every attribute of every package module and class."""
    owners = tracing.package_modules()
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


class P95Index(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(run.p95_index(200), 189)
        self.assertEqual(run.p95_index(1000), 949)

    def test_needs_ten_samples_beyond(self):
        index = run.p95_index(run.MIN_ITEMS_PER_PASS)
        self.assertEqual(run.MIN_ITEMS_PER_PASS - 1 - index, run.MIN_BEYOND_P95)
        for n in (0, 1, 20, run.MIN_ITEMS_PER_PASS - 1):
            with self.assertRaises(ValueError):
                run.p95_index(n)


class SelfTime(unittest.TestCase):
    def test_nested_span_tree(self):
        # a[0,10] holds b[1,4] (holding c[2,3]) and b[5,9]; d[11,12] is top-level
        ticks = iter([0, 1, 2, 3, 4, 5, 9, 10, 11, 12])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        for step in ["a", "b", "c", None, None, "b", None, None, "d", None]:
            tracer.enter(step) if step else tracer.leave()
        self.assertEqual(dict(tracer.self_s), {"a": 3, "b": 6, "c": 1, "d": 1})
        self.assertEqual(tracer.top_s, 11)
        self.assertEqual(
            dict(tracer.edges),
            {(None, "a"): 1, ("a", "b"): 2, ("b", "c"): 1, (None, "d"): 1},
        )
        self.assertEqual(dict(tracer.calls()), {"a": 1, "b": 2, "c": 1, "d": 1})


class InstallUninstall(unittest.TestCase):
    def test_wraps_where_looked_up_and_restores_identity(self):
        before = attribute_snapshot()
        original_det = intlinalg.det_bareiss
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            wrapped = intlinalg.det_bareiss
            self.assertIsNot(wrapped, original_det)
            for module in (quiver, companion, root_system):
                self.assertIs(module.det_bareiss, wrapped)
            self.assertIsNot(vars(root_system.RootSystem)["inner"], before[
                (id(root_system.RootSystem), "inner")
            ])
            B = workloads.standard_orientation("A3")
            psi = companion.initial_companion_basis(B)
            companion.mutate_inward(psi, B, 1)
            calls = tracer.calls()
            self.assertEqual(calls["companion.mutate_inward"], 1)
            self.assertEqual(calls["intlinalg.det_bareiss"], 1)
            self.assertEqual(calls["quiver.mutate"], 1)
        finally:
            not_restored = tracing.uninstall(patches)
        self.assertEqual(not_restored, [])
        after = attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_every_target_is_patched(self):
        patches = tracing.install(tracing.Tracer())
        try:
            patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
        finally:
            tracing.uninstall(patches)
        for module_name, path in tracing.TARGETS.values():
            owner, _, attr = path.rpartition(".")
            self.assertIn((owner or f"companion_bases.{module_name}", attr), patched)


class RunPasses(unittest.TestCase):
    def test_failures_are_counted_and_named(self):
        def raises():
            raise ValueError("boom")

        items = [("good", lambda: None), ("bad", lambda: "wrong answer"), ("raises", raises)]
        phase = run.run_passes(items, 0.0, 2)
        self.assertEqual(phase.attempted, 6)
        self.assertEqual(len(phase.pass_s), 2)
        self.assertEqual(
            phase.failures,
            ["bad: wrong answer", "raises: ValueError: boom"] * 2,
        )

    def test_times_are_scaled_to_the_nominal_reference(self):
        # the second repetition ran while the reference took twice as long
        nominal = run.NOMINAL_S
        phase = run.Phase([[10.0, 20.0, 12.0]], [[nominal, 2 * nominal, nominal]])
        [median] = phase.median_ms()
        self.assertAlmostEqual(median, 10.0)
        self.assertEqual(phase.median_ms(scaled=False), [12.0])
        self.assertAlmostEqual(phase.items_per_s(), 100.0)
        self.assertAlmostEqual(phase.slowdown(), 1.0)

    def test_deadline_stops_mid_pass_unless_whole(self):
        items = [(str(i), lambda: time.sleep(0.05)) for i in range(4)]
        # the first pass ends near 0.2 s, the deadline falls inside the second
        phase = run.run_passes(items, 0.35, 1)
        self.assertEqual(len(phase.pass_s), 1)
        self.assertTrue(4 < phase.attempted < 8, phase.attempted)
        self.assertTrue(all(t >= 50 for times in phase.times_ms for t in times))
        whole = run.run_passes(items, 0.35, 1, whole_passes=True)
        self.assertEqual((whole.attempted, len(whole.pass_s)), (8, 2))


class TracedDeterminism(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        args = argparse.Namespace(seed=3, seconds=0.001)
        for name, (types, generate) in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                runs = [run.measure_layers(args, types, generate) for _ in range(2)]
                counts = []
                for values, phases, record in runs:
                    self.assertEqual([p.failures for p in phases], [[], []])
                    self.assertEqual(record["trace_problems"], [])
                    counts.append(
                        {k: v for k, v in values.items() if k.endswith("_per_item") and "self_ms" not in k}
                    )
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(values["trace.coverage"], 0.5)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for key, units in (("end_to_end", run.END_TO_END), ("per_layer", tracing.layer_units())):
            self.assertEqual(
                {m["name"]: (m["unit"], m["better"]) for m in spec[key]}, units, key
            )

    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "mutation_walk",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
