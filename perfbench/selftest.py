"""The benchmark's own tests, at a small size (well under a minute).

    python3 perfbench/selftest.py

Run from the repository root. Scratch files go under ``.bench_work/``.
The file name keeps these tests out of the repository's pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import numpy as np

import run
from workloads import Exchange, InferBursty, SweepFigR

ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_work" / "selftest"
SEED = 7  # no digest is pinned at this seed: only the seed-independent checks apply


def traced(workload, name: str, keep: bool = False) -> run.Sample:
    return run.run_once(
        workload, SEED, ROOT, SCRATCH / name, True, time.monotonic() + 170, keep=keep
    )


def spans_of(work: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((work / "spans").glob("spans-*.json"))]


class LedgerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass  # a benchmark run is still using it

    def test_metrics_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        empty = SCRATCH / "empty"
        empty.mkdir()
        reported = run.layer_metrics(empty)
        reported["trace_overhead"] = (1.0, "ratio")
        self.assertEqual(
            {name: unit for name, (value, unit) in reported.items()},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
        )
        self.assertEqual(
            [m["name"] for m in bench["end_to_end"]], ["wall_s", "setup_s", "peak_rss_mb"]
        )
        self.assertEqual(
            sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS)
        )

    def test_counts_repeat_and_tracing_changes_no_result(self):
        workload = Exchange(workers=16, rounds=2)
        plain = run.run_once(
            workload, SEED, ROOT, SCRATCH / "plain", False, time.monotonic() + 170
        )
        first, second = traced(workload, "t1"), traced(workload, "t2")
        for sample in (plain, first, second):
            self.assertEqual(sample.problems, [])
        self.assertEqual(first.digest, plain.digest)
        self.assertEqual(second.digest, plain.digest)
        counts = {k: v for k, (v, unit) in first.layers.items() if unit == "count"}
        self.assertEqual(
            counts, {k: v for k, (v, unit) in second.layers.items() if unit == "count"}
        )
        self.assertGreater(counts["storage.ops"], 0)
        self.assertGreater(counts["comm.steps"], 0)

    def test_self_times_bounded_by_wall(self):
        sample = traced(Exchange(workers=16, rounds=2), "bounded", keep=True)
        records = spans_of(SCRATCH / "bounded")
        self.assertEqual([r["role"] for r in records], ["root"])
        self_s = records[0]["self_s"]
        self.assertTrue(all(value >= 0 for value in self_s.values()), self_s)
        self.assertLessEqual(sum(self_s.values()), sample.wall_s)

    def test_forked_pool_children_report_spans(self):
        sample = traced(SweepFigR(max_epochs=1), "sweep", keep=True)
        self.assertEqual(sample.problems, [])
        records = spans_of(SCRATCH / "sweep")
        children = [r for r in records if r["role"] == "child"]
        self.assertEqual(len(children), 17)  # one process per replayed point
        self.assertEqual(sum(r["counts"].get("substrate.replayed", 0) for r in children), 17)
        for record in records:
            self.assertTrue(all(v >= 0 for v in record["self_s"].values()))
            self.assertLessEqual(sum(record["self_s"].values()), sample.wall_s)
        self.assertEqual(sample.layers["substrate.replayed"][0], 17)
        self.assertEqual(sample.layers["sweep.points_planned"][0], 36)
        self.assertGreater(sample.layers["models.self_s"][0], 0)

    def test_serving_counts(self):
        sample = traced(InferBursty(requests=500), "infer")
        self.assertEqual(sample.problems, [])
        self.assertEqual(sample.layers["serving.requests"][0], 500)
        self.assertGreater(sample.layers["serving.autoscale_calls"][0], 0)

    def test_exchange_check_catches_a_wrong_merge(self):
        workload = Exchange(workers=8, rounds=1)
        out = SCRATCH / "tampered"
        sample = run.run_once(workload, SEED, ROOT, out, False, time.monotonic() + 170, keep=True)
        self.assertEqual(sample.problems, [])
        merged = np.load(out / "out" / "merged.npy")
        merged[0, 3, 0] = np.nextafter(merged[0, 3, 0], np.inf)
        np.save(out / "out" / "merged.npy", merged)
        _, problems = workload.check(SEED, out / "out", [""], [{}])
        self.assertEqual(problems, ["round 0: 1 rank(s) differ from the rank-order mean"])

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep_figR", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
