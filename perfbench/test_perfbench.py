#!/usr/bin/env python3
"""Tests of the benchmark itself: the traced harness must measure the same
program the untraced one times.

    python3 perfbench/test_perfbench.py

Builds the harness like run.py does, then for every workload checks that
traced and untraced children give identical canonical findings, that the
traced self-time partition is non-negative and fits in the traced session,
that every count repeats exactly across two traced children, and that the
findings do not depend on the seed. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def sample(workload, seed):
    return json.loads(run.child(["sample", workload, str(seed)]))


def trace(workload, seed):
    spans = f"test-spans-{workload}.tsv"
    return json.loads(run.child(["trace", workload, str(seed), spans]))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traces = {w: [trace(w, 1), trace(w, 1)] for w in run.WORKLOADS}
        cls.samples = {w: {seed: sample(w, seed) for seed in (1, 2, 3)}
                       for w in run.WORKLOADS}

    def test_every_child_passes_its_findings_gate(self):
        for workload in run.WORKLOADS:
            for result in self.traces[workload] + list(
                    self.samples[workload].values()):
                self.assertTrue(result["ok"], (workload, result["error"]))

    def test_traced_and_untraced_findings_are_identical(self):
        for workload in run.WORKLOADS:
            untraced = self.samples[workload][1]
            for result in self.traces[workload]:
                self.assertEqual(result["identity"], untraced["identity"],
                                 workload)
                self.assertEqual(result["findings"], untraced["findings"],
                                 workload)
                if "raw_conflicts" in untraced:
                    self.assertEqual(result["raw_conflicts"],
                                     untraced["raw_conflicts"], workload)
                if "retire_digest" in untraced:
                    self.assertEqual(result["retire_digest"],
                                     untraced["retire_digest"], workload)

    def test_self_times_are_non_negative_and_fit_in_the_session(self):
        # Span self times are non-negative by construction. The callback
        # and access-path parts and the tracing overhead are differences
        # between legs run back to back; where a cost is below the host's
        # run-to-run range a difference can read negative, so only the legs
        # themselves must be positive.
        for workload in run.WORKLOADS:
            for result in self.traces[workload]:
                parts = result["partition"]
                legs = (("vm_runtime", "callbacks", "access_path")
                        if "vm_runtime" in parts else ())
                for name, seconds in parts.items():
                    if name not in legs:
                        self.assertGreaterEqual(seconds, 0, (workload, name))
                if "vm_runtime" in parts:
                    self.assertGreater(parts["vm_runtime"], 0, workload)
                    self.assertGreater(
                        parts["vm_runtime"] + parts["callbacks"], 0, workload)
                self.assertLessEqual(sum(parts.values()),
                                     result["session_s"], workload)
                metrics = result["metrics"]
                differences = ("trace.overhead_s",) + (
                    ("vex.callback_s", "instrument.access_s") if legs else ())
                for name, unit in run.TRACED.items():
                    if unit == "s" and name not in differences:
                        self.assertGreaterEqual(metrics[name], 0,
                                                (workload, name))

    def test_counts_repeat_exactly_across_traced_runs(self):
        for workload in run.WORKLOADS:
            first, second = self.traces[workload]
            for name, unit in run.TRACED.items():
                if unit in run.NOT_REPEATED:
                    continue
                self.assertEqual(first["metrics"][name],
                                 second["metrics"][name], (workload, name))

    def test_findings_do_not_depend_on_the_seed(self):
        for workload in run.WORKLOADS:
            by_seed = self.samples[workload]
            identities = {result["identity"] for result in by_seed.values()}
            self.assertEqual(len(identities), 1, (workload, by_seed))

    def test_layers_do_their_work_on_their_workload(self):
        coarse = self.traces["lulesh-coarse"][0]["metrics"]
        fine = self.traces["lulesh-fine"][0]["metrics"]
        mesh = self.traces["dense-mesh"][0]["metrics"]
        self.assertGreater(coarse["vex.guest_instrs"], 0)
        self.assertGreater(coarse["instrument.accesses"], 0)
        self.assertGreater(fine["runtime.steals"], 0)
        self.assertGreater(fine["pair_batch.skipped_fingerprint"], 0)
        self.assertEqual(mesh["vex.guest_instrs"], 0)
        self.assertGreater(mesh["streaming.segments_retired"], 0)


class StandaloneTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        root = os.path.dirname(run.HERE)
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            {**run.TRACED, **run.DERIVED})
        # lulesh-coarse runs by hand and in these tests only (README.md).
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS) - {"lulesh-coarse"})

    def test_fails_without_the_engine_sources(self):
        root = os.path.dirname(run.HERE)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lulesh-fine", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
