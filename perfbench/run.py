#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload eager-2r --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Builds the library and the driver from
source into .bench_build/perfbench (CMake, Release), runs the driver's
statistics self-tests, then runs one benchmark pass set and prints the
driver's report. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, and the run also checks
that the traced passes reproduce the untraced passes' virtual-time
end-to-end metrics within each metric's bound. Exits non-zero, without a
result line, when the build, the self-tests or the driver fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def trace_mismatch(spec, raw):
    """Worst relative gap between traced and untraced virtual-time metrics,
    and whether every gap stays within its metric's bound. setup_s is host
    time and tracing changes it by design, so it is left out, and so is a
    percentile the driver refused in either half. Any other metric that
    reads 0 fails the check: it means its passes recorded nothing."""
    untraced, traced = raw["untraced"], raw["traced"]
    refused = set(raw["untraced_refused"]) | set(raw["traced_refused"])
    ok, worst = True, 0.0
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            continue
        if name in refused:
            print(f"trace check {name}: skipped, percentile refused "
                  f"(too few samples in half a run)")
            continue
        base, got = untraced[name]["value"], traced[name]["value"]
        if base == 0 or got == 0:
            print(f"trace check {name}: untraced {base:.6g}, traced "
                  f"{got:.6g}: no samples FAIL")
            ok = False
            continue
        gap = abs(got - base) / base
        worst = max(worst, gap)
        within = gap <= m["bound"]
        ok = ok and within
        print(f"trace check {name}: untraced {base:.6g}, traced "
              f"{got:.6g}, gap {gap:.3g} of base "
              f"{base:.6g} (bound {m['bound']}){'' if within else ' FAIL'}")
    return ok, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    try:
        build()
        subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        log(f"perfbench: build or self-test failed: {e}")
        return 3

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"perfbench: driver exited with {proc.returncode}")
        return 5
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in spec[section]]
    metrics = raw["metrics"]
    if sorted(want) != sorted(metrics):
        log(f"perfbench: driver metrics differ from BENCHMARK.json "
            f"{section}: missing {sorted(set(want) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(want))}")
        return 6
    correct = bool(raw["correct"])
    if args.trace:
        ok, worst = trace_mismatch(spec, raw)
        print(f"trace check worst gap {worst:.3g}: "
              f"{'within bounds' if ok else 'OUT OF BOUNDS'}")
        correct = correct and ok
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {k: metrics[k] for k in want}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
