#!/usr/bin/env python3
"""Steadiness pass of the repo benchmark.

    python3 perfbench/steady.py

Run from the root of a checkout. For each workload of BENCHMARK.json it
runs perfbench/run.py (--trace 0, run_seconds) once for each of seeds
101-110 and reports, per end-to-end metric, the median and the spread: the
distance between the first and third quartiles of the per-seed values
(statistics.quantiles, n=4) as a share of their median. A spread must stay
within the metric's bound in BENCHMARK.json (setup_s excepted) and should
stay within a third of it.

It then reruns seed 101 three more times and counts the distinct
virtual-time digests of its pass 0 over its four runs: one digest means
the virtual time of that seed repeated bit for bit. Exits non-zero when a
run is incorrect or a gated spread exceeds its bound.
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST = re.compile(r"^vt_digest \S+ seed=\d+ pass0=([0-9a-f]+)$", re.M)
SEEDS = range(101, 111)
REPEAT = 3


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    digest = DIGEST.search(proc.stdout)
    return result, digest.group(1) if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        digests = []
        for seed in SEEDS:
            result, digest = run(workload, seed, seconds)
            if seed == SEEDS[0]:
                digests.append(digest)
            failed += 0 if result["correct"] and result["failed"] == 0 else 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(SEEDS)} seeds, {failed} incorrect run(s)")
        steady = steady and failed == 0
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            verdict = "ok" if spread <= limit else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] == "setup_s":
                verdict += " (not gated)"
            elif spread > m["bound"]:
                steady = False
            print(f"  {m['name']:<12} median {med:<14.6g} spread "
                  f"{spread:.4f} of median (bound {m['bound']}, "
                  f"third {limit:.4f}) {verdict}")
        digests += [run(workload, SEEDS[0], seconds)[1] for _ in range(REPEAT)]
        print(f"  vt digest of seed {SEEDS[0]} pass 0: "
              f"{len(set(digests))} distinct in {len(digests)} runs")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
