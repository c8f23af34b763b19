#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The digest and refusal tests build blam_perf (into .bench_build/) and run
the shrunk workloads; the rest are pure arithmetic.
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


def span(sid, name, start, end, parent=-1):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent}


def iteration(wall, cpu, traced=False, digest="d", counters=None, **extra):
    it = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "epoch_cpu_s": cpu,
          "busy_max_s": 0.0, "effective_shards": 1, "digest": digest,
          "checkpoint_bytes": 0, "checkpoints": 0, "pending": [],
          "counters": counters or {"events": 1}}
    it.update(extra)
    return it


class EnvTest(unittest.TestCase):
    def test_clears_listed_settings_and_records_them(self):
        env = {"BLAM_SHARDS": "4", "BLAM_JOBS": "2", "BLAM_OUT_DIR": "x", "PATH": "/bin"}
        cleaned, removed = run.clear_env(env)
        self.assertEqual(removed, ["BLAM_JOBS", "BLAM_SHARDS"])
        self.assertEqual(cleaned, {"BLAM_OUT_DIR": "x", "PATH": "/bin"})
        self.assertIn("BLAM_SHARDS", env, "the caller's environment is left alone")

    def test_every_setting_named_by_the_simulator_is_cleared(self):
        env = {name: "1" for name in run.CLEARED_ENV}
        cleaned, removed = run.clear_env(env)
        self.assertEqual(cleaned, {})
        self.assertEqual(removed, sorted(run.CLEARED_ENV))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children_union(self):
        spans = [
            span(0, "iteration", 0.0, 10.0),
            span(1, "a", 1.0, 3.0, parent=0),
            span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: union [1, 5]
            span(3, "c", 8.0, 12.0, parent=0),  # clipped to the parent: [8, 10]
            span(4, "d", 1.5, 2.0, parent=1),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[1], 2.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 0.5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(7, "x", 2.0, 2.5)]), {7: 0.5})


class MetricTest(unittest.TestCase):
    def test_end_to_end_derivation(self):
        raw = {"nodes": 10, "days": 2, "peak_rss_mb": 12.5,
               "iterations": [iteration(2.0, 4.0), iteration(3.0, 6.0), iteration(10.0, 1.0)]}
        m = run.end_to_end(raw, [0.3, 0.1, 0.2])
        # Medians of the per-iteration rates: 20 node-days over 2/3/10 s.
        self.assertAlmostEqual(m["node_days_per_s"][0], 20 / 3.0)
        self.assertAlmostEqual(m["node_days_per_cpu_s"][0], 20 / 4.0)
        self.assertEqual(m["peak_rss_mb"], (12.5, "MB"))
        self.assertAlmostEqual(m["setup_s"][0], 0.2)

    def test_end_to_end_skips_traced_iterations(self):
        raw = {"nodes": 1, "days": 1, "peak_rss_mb": 1.0,
               "iterations": [iteration(100.0, 100.0, traced=True), iteration(2.0, 2.0)]}
        self.assertAlmostEqual(run.end_to_end(raw, [1.0])["node_days_per_s"][0], 0.5)

    def test_check_counts_digest_and_counter_mismatches(self):
        raw = {"reference_digest": "d",
               "iterations": [iteration(1, 1), iteration(1, 1, digest="e"),
                              iteration(1, 1, counters={"events": 2})]}
        self.assertEqual(run.check(raw), (3, 2))

    def test_per_layer_derivation(self):
        counters = {"events": 400, "generated": 50, "delivered": 40, "tx_attempts": 60,
                    "selections": 50, "arrivals": 960, "received": 45,
                    "lost_interference": 5, "lost_under_sensitivity": 900,
                    "reports_dropped": 0, "reports_reordered": 0, "reports_corrupted": 0,
                    "ledger_reports_accepted": 45, "ledger_reports_duplicate": 0,
                    "ledger_reports_checksum_rejected": 0, "ledger_reports_buffered": 1,
                    "ledger_gaps_bridged": 2, "ledger_quarantines": 0}
        raw = {
            "nodes": 10, "days": 2,
            "iterations": [
                iteration(4.0, 4.0, traced=True, counters=counters, checkpoint_bytes=300,
                          checkpoints=3, pending=[5, 7, 6]),
                iteration(2.0, 2.0, counters=counters),
            ],
            "micro": {"queue_depth": 6, "queue_ns_per_event": 100.0, "select_ns": 200.0,
                      "recompute_s": 0.01, "ingest_ns_clean": 50.0, "ingest_ns_faulted": 80.0},
        }
        spans = [
            span(0, "net.construct", 0.0, 1.0),
            span(1, "net.plan_deployment", 0.0, 0.2, parent=0),
            span(2, "energy.solar_trace", 0.2, 0.3, parent=0),
            span(3, "iteration", 1.0, 5.0),
            span(4, "sim.epoch", 1.0, 2.0, parent=3),
            span(5, "sim.epoch", 2.0, 4.0, parent=3),
            span(6, "sim.checkpoint", 4.0, 4.5, parent=3),
            span(7, "net.finalize", 4.5, 5.0, parent=3),
        ]
        m, bases = run.per_layer(raw, spans)
        value = {k: v for k, (v, _) in m.items()}
        self.assertAlmostEqual(value["sim.events_per_node_day"], 20.0)
        self.assertEqual(value["sim.pending_events"], 6)
        self.assertAlmostEqual(value["sim.epoch_wall_median_s"], 1.5)
        self.assertAlmostEqual(value["sim.epoch_wall_max_s"], 2.0)
        self.assertAlmostEqual(value["sim.barrier_wait_s"], 0.0)
        self.assertAlmostEqual(value["sim.shard_imbalance"], 1.0)
        self.assertAlmostEqual(value["sim.checkpoint_bytes"], 100.0)
        self.assertAlmostEqual(value["common.codec_mb_per_s"], 300 / 0.5 / 1e6)
        # Constructor self time (0.7 s) minus the planner the constructor repeats.
        self.assertAlmostEqual(value["net.build_s"], 0.5)
        self.assertAlmostEqual(value["lora.copies_per_attempt"], 16.0)
        self.assertAlmostEqual(value["lora.heard_ratio"], 1.0 - 900 / 960)
        self.assertAlmostEqual(value["lora.interference_loss_ratio"], 5 / 60)
        self.assertAlmostEqual(value["mac.prr"], 0.8)
        self.assertAlmostEqual(value["mac.attempts_per_packet"], 1.2)
        self.assertAlmostEqual(value["core.selects_per_node_day"], 2.5)
        self.assertAlmostEqual(value["trace.overhead"], (20 / 2.0) / (20 / 4.0) - 1.0)
        attributed = 400 * 100e-9 + 50 * 200e-9 + 2 * 0.01 + 45 * 50e-9 + 0.5 + 0.5
        self.assertAlmostEqual(value["trace.attributed_share"], attributed / 4.0)
        self.assertEqual(bases["lora.copies_per_attempt"], {"arrivals": 960, "tx_attempts": 60})


class ProgramTest(unittest.TestCase):
    """Builds blam_perf and runs the shrunk workloads."""

    @classmethod
    def setUpClass(cls):
        cls.env, _ = run.clear_env(os.environ)
        run.build(cls.env)

    def test_digest_is_stable_and_matches_the_reference(self):
        for workload in run.WORKLOADS:
            args = ["--mode", "run", "--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", "0", "--small"]
            first, second = run.blam_perf(args, self.env), run.blam_perf(args, self.env)
            digests = {it["digest"] for it in first["iterations"] + second["iterations"]}
            self.assertEqual(digests, {first["reference_digest"]}, workload)
            self.assertEqual(first["reference_digest"], second["reference_digest"])
            self.assertEqual(run.check(first), (1, 0))

    def test_traced_run_emits_every_per_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        out = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                              "--workload", "city_resume", "--seed", "3", "--seconds", "0",
                              "--trace", "1", "--small"],
                             capture_output=True, text=True, env=self.env, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), names)

    def test_refuses_without_the_simulator_sources(self):
        scratch = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(run.BENCH_DIR, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "paper_year", "--seed", "1", "--seconds", "1"],
                                 cwd=scratch, capture_output=True, text=True, timeout=170,
                                 check=False)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
