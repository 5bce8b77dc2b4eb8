#!/usr/bin/env python3
"""Reconciliation and contract tests for the benchmark.

    python3 perfbench/test_bench.py

Each test runs perfbench/run.py on a short budget and checks that the
numbers it derives agree with their sources:

- every kernel sample lies inside the outer wall time of its pass, the
  medians of the samples sum to kernel_s.serial, kernel_s.d1 and
  kernel_s.d2, and the serial and 1-domain totals to batch_s;
- server sojourn never exceeds client round-trip time;
- small plus large requests equal the requests the serving phase
  attempted, and the server's own counts of submitted and routed
  requests agree;
- the simulator's counts repeat exactly across two runs;
- every workload prints exactly the declared end-to-end metrics, and
  in a traced run exactly the declared per-layer ones;
- outside a checkout, run.py fails without printing a result.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "test")
SECONDS = "3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
E2E = {m["name"] for m in BENCH["end_to_end"]}
LAYERS = {m["name"] for m in BENCH["per_layer"]}
_runs = {}


def run(workload, seed=1, trace=0):
    """Run once per (workload, seed, trace); return (result, detail)."""
    key = (workload, seed, trace)
    if key not in _runs:
        os.makedirs(OUT_DIR, exist_ok=True)
        detail = os.path.join(OUT_DIR, "%s-%d-%d.json" % key)
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
             "--detail", detail],
            cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            raise AssertionError("run.py failed (exit %d):\n%s" % (p.returncode, p.stderr))
        result = json.loads(p.stdout.strip().splitlines()[-1])
        with open(detail) as fh:
            _runs[key] = (result, json.load(fh))
    return _runs[key]


def value(metrics, name):
    return metrics[name]["value"]


class Reconcile(unittest.TestCase):
    def test_kernel_medians_sum_to_totals(self):
        for trace in (0, 1):
            _, d = run("kernels", trace=trace)
            det = d["detail"]
            for mode in ("serial", "d1", "d2"):
                passes = int(det["passes." + mode])
                walls = [det["pass_wall_s.%s.%d" % (mode, i)] for i in range(passes)]
                samples = {}
                for k, v in det.items():
                    parts = k.split(".")
                    if parts[0] == "sample_s" and parts[1] == mode:
                        samples.setdefault(parts[2], {})[int(parts[3])] = v
                self.assertEqual(len(samples), 8)
                # every sample is one kernel call inside one pass: a pass's
                # samples fit in its outer wall time, and they fill most of
                # it (the rest is untimed input copies and checksums)
                for i, wall in enumerate(walls):
                    timed = sum(s[i] for s in samples.values())
                    self.assertLessEqual(timed, wall, (mode, i))
                    self.assertGreater(timed, 0.8 * wall, (mode, i))
                # medians recomputed from the samples give the per-layer
                # metrics, and they sum to the end-to-end total
                total = 0.0
                for name, s in samples.items():
                    self.assertEqual(sorted(s), list(range(passes)))
                    med = statistics.median(s.values())
                    self.assertAlmostEqual(
                        med, value(d["breakdown"], "workloads.%s.%s_s" % (name, mode)),
                        delta=1e-9)
                    total += med
                self.assertAlmostEqual(total, value(d["breakdown"], "kernel_s." + mode),
                                       delta=1e-9)
            self.assertAlmostEqual(
                value(d["e2e"], "batch_s"),
                value(d["breakdown"], "kernel_s.serial") + value(d["breakdown"], "kernel_s.d1"),
                delta=1e-9)

    def test_sojourn_never_exceeds_rtt(self):
        # the serving phase runs in the traced kernels run
        _, d = run("kernels", trace=1)
        self.assertEqual(d["detail"]["sojourn_over_rtt"], 0)
        self.assertLessEqual(d["detail"]["max_sojourn_minus_rtt_us"], 0)
        self.assertLessEqual(value(d["breakdown"], "serve.sojourn_ms.small_p50"),
                             value(d["breakdown"], "small_p50_ms"))
        self.assertLessEqual(value(d["layers"], "serve.sojourn_share"), 1)

    def test_small_plus_large_is_attempted(self):
        res, d = run("kernels", trace=1)
        det = d["detail"]
        # every pass in every mode calls each of the 8 kernels once; the
        # rest of the attempted operations are the serving phase's requests
        kernel_calls = 8 * sum(int(det["passes." + m]) for m in ("serial", "d1", "d2"))
        requests = res["attempted"] - kernel_calls
        # the client's counts against the server's own: shard 0 is the
        # reserved small shard, shard 1 takes every large request
        small = det["small"] + det["warmup_small"]
        large = det["large"] + det["warmup_large"]
        self.assertGreater(small, 0)
        self.assertGreater(large, 0)
        self.assertEqual(small + large, requests)
        self.assertEqual(det["server_submitted"], requests)
        self.assertEqual(det["routed_small"], small)
        self.assertEqual(det["routed_large"], large)
        self.assertEqual(det["server_served"], requests)
        self.assertEqual(res["failed"], 0)

    def test_sim_counts_repeat_exactly(self):
        a, _ = run("paper-repro", seed=1, trace=1)
        b, _ = run("paper-repro", seed=2, trace=1)
        for name in ("sim.makespan_cycles", "sim.steals", "sim.promotions",
                     "sim.beats_delivered"):
            self.assertEqual(value(a["metrics"], name), value(b["metrics"], name))


class Contract(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            for trace, declared in ((0, E2E), (1, LAYERS)):
                res, _ = run(w["name"], trace=trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), declared)
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)
                    self.assertGreaterEqual(m["value"], 0, name)
                    if trace == 0 or name.startswith("traced."):
                        self.assertGreater(m["value"], 0, name)

    def test_each_layer_is_measured_somewhere(self):
        k = run("kernels", trace=1)[0]["metrics"]
        r = run("paper-repro", trace=1)[0]["metrics"]
        for name in ("par.promotions", "par.steals", "kernels.serial_over_d2",
                     "serve.sojourn_share", "net.routed_small_frac"):
            self.assertGreater(value(k, name), 0, name)
        for name in ("sim.makespan_cycles", "core.work", "repro.eval_share"):
            self.assertGreater(value(r, name), 0, name)

    def test_fails_outside_a_checkout(self):
        bare = os.path.join(OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernels",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
