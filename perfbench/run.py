#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 50 --trace 0

Builds perfbench/bench.exe from source into .bench_build/ (dune),
runs the workload once, and prints a provenance line, one line per
metric of the workload's own breakdown, and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
Every workload reports the same metrics: --trace 0 the end-to-end
ones; --trace 1 runs with the existing tracers and runtime_events
switched on and reports the per-layer ones.

Exits 1 if the build fails, the program fails, or any output is
wrong; exits 2 outside a checkout of the repository.  --detail PATH
also writes the binary's full record (reconciliation details,
provenance) as JSON to PATH.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD_DIR, "dune")
EXE = os.path.join(DUNE_BUILD, "default", "perfbench", "bench.exe")
WORKLOADS = ("kernels", "paper-repro")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    # no shared dune cache: the build reads and writes only the checkout;
    # perfbench/dune enables the executable only in the perfbench profile
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", DUNE_BUILD,
           "--profile", "perfbench", "--cache=disabled", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + p.stdout + p.stderr)


def source_revision():
    """The git revision, or None outside a git repository."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = p.stdout.strip()
    return rev if p.returncode == 0 and rev else None


def run_binary(args):
    env = dict(os.environ)
    # runtime_events writes its ring file here, not into the checkout root
    rte = os.path.join(BUILD_DIR, "runtime_events")
    os.makedirs(rte, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = rte
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload %s produced no result (exit %d):\n%s"
             % (args.workload, p.returncode, p.stderr[-4000:]))
    if p.stderr:
        sys.stderr.write(p.stderr)
    return record, p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", help="also write the full record here")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("run from a checkout of the repository: no dune-project or lib/ "
             "next to perfbench/", code=2)
    build()
    record, code = run_binary(args)

    metrics = record["layers"] if args.trace else record["e2e"]
    prov = dict(record["provenance"])
    prov["revision"] = source_revision()
    record["provenance"] = prov
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    correct = bool(record["correct"]) and code == 0
    for b in record["breaches"][:20]:
        print("breach: " + b, file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, m in sorted(record["breakdown"].items()) + sorted(metrics.items()):
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in sorted(metrics.items())},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
