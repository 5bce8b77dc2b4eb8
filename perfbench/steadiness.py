#!/usr/bin/env python3
"""Measure how steady the benchmark's metrics are across seeds.

    python3 perfbench/steadiness.py --workload kernels --runs 10

Runs perfbench/run.py once per seed (1..runs), then prints, for every
metric, its median, first and third quartiles and the spread
(Q3 - Q1) / median, as a Markdown table row.  Quartiles are Python's
statistics.quantiles(values, n=4).  Each metric's bound, where
BENCHMARK.json gives one, is shown next to it.  Each seed's line on
standard error also gives the share of CPU time the hypervisor stole
from this virtual machine during the run (Linux /proc/stat), which
tells a run slowed by other tenants from one slowed by the program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            v = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return v[7], sum(v)


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        t0 = cpu_ticks()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        t1 = cpu_ticks()
        steal = (None if t0 is None or t1 is None
                 else round((t1[0] - t0[0]) / max(1, t1[1] - t0[1]), 3))
        if p.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, p.returncode, p.stderr))
        res = json.loads(p.stdout.strip().splitlines()[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: steal %s %s" % (seed, steal, json.dumps(
            {k: round(m["value"], 6) for k, m in sorted(res["metrics"].items())})),
            file=sys.stderr)

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in sorted(values):
        v = values[name]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s |"
              % (args.workload, name, q2, q1, q3, spread,
                 "-" if bound is None else bound))


if __name__ == "__main__":
    main()
