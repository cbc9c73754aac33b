"""Smoke tests of the benchmark itself, at a few thousand rows per workload.

    python3 -m unittest perfbench/test_perfbench.py

For every workload in BENCHMARK.json, one untraced and one traced smoke run
(same seed) must: emit every metric BENCHMARK.json names, each with its
unit; pass the M/S/F output check; write spans that nest inside their
parents; and produce, traced, the same per-iteration loglik and loss
sequences as untraced.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# Spark stamps job start and end in whole milliseconds; spans are anchored to
# the same wall clock, itself read in whole milliseconds.
CLOCK_SLACK_MS = 2.0
# A traced run must be the same training as the untraced one by the rule M, S
# and F must meet; repeats differ because Spark merges partition results in
# task completion order.
REPEAT_REL = 1e-6


def smoke_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True).stdout
    lines = out.strip().splitlines()
    record = next(json.loads(l[len("RUN_RECORD "):]) for l in lines if l.startswith("RUN_RECORD "))
    return record, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 6)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def check_spans(self, path):
        spans = {s["id"]: s for s in json.loads(Path(path).read_text())["spans"]}
        self.assertTrue(spans)
        for s in spans.values():
            self.assertLessEqual(s["start_ms"], s["end_ms"], s)
            if s["parent"] == 0:
                continue
            p = spans[s["parent"]]
            self.assertGreaterEqual(s["start_ms"], p["start_ms"] - CLOCK_SLACK_MS, (s, p))
            self.assertLessEqual(s["end_ms"], p["end_ms"] + CLOCK_SLACK_MS, (s, p))
        names = {s["name"] for s in spans.values()}
        for key in ("gmm.m", "gmm.s", "gmm.f", "nn.m", "nn.s", "nn.f"):
            self.assertIn(key + ".train", names)
        self.assertIn("spark.job", names)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain_rec, plain = smoke_run(w["name"], 0)
                traced_rec, traced = smoke_run(w["name"], 1)
                self.check_result(plain, SPEC["end_to_end"])
                self.check_result(traced, SPEC["per_layer"])
                self.assertTrue(traced_rec["traced_matches_untraced"])
                self.check_spans(traced_rec["trace_file"])
                for algo, seq in plain_rec["sequences"].items():
                    other = traced_rec["traced_sequences"][algo]
                    self.assertEqual(len(seq), len(other), algo)
                    for a, b in zip(seq, other):
                        self.assertLessEqual(abs(a - b), REPEAT_REL * max(1e-12, abs(a)), algo)
                for key in ("git_sha", "nproc", "spark_master", "heap_max_mb", "shuffle_partitions",
                            "spark_version", "scala_version", "jdk", "seed", "workload"):
                    self.assertIn(key, plain_rec)


if __name__ == "__main__":
    unittest.main()
