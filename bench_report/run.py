#!/usr/bin/env python3
"""Build bench_report from this checkout and run one workload.

    python3 bench_report/run.py --workload serve-hot --seed 3 --seconds 15 --trace 0
    python3 bench_report/run.py --workload all --seed 1 --seconds 15 --trace 1 --json out.json
    python3 bench_report/run.py --compare base.json new.json

The benchmark is configured and built under .bench_build/ at the root of
the checkout (an incremental no-op after the first run), then run with
every other argument passed through. Its last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; before printing it,
this script checks that the metric names are exactly the ones
BENCHMARK.json declares for that tier, so the two cannot drift apart.

--compare reads two reports written with --json and prints, for every
end-to-end metric, the change against BENCHMARK.json's bound (wall times
never fail the comparison). It fails if the new report is wrong, if its
share of failed operations is higher than the base's, or on any change
in a counter the report marks exact. Exact counters repeat only for a
fixed seed, so compare reports of the same seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY_DIR = os.path.join(BUILD, "bench_report")
BINARY = os.path.join(BINARY_DIR, "bench_report")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not in this checkout", 2)
    steps = []
    if not os.path.isfile(os.path.join(BINARY_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BINARY_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BINARY_DIR, "-j4",
                  "--target", "bench_report"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd), 2)


def run(passthrough, workload, trace):
    cmd = [BINARY] + passthrough + ["--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_report did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("bench_report printed no result (exit code %d)"
             % proc.returncode)
    if workload != "all":
        tier = "per_layer" if trace else "end_to_end"
        declared = [m["name"] for m in load_benchmark_json()[tier]]
        if sorted(result["metrics"]) != sorted(declared):
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("metrics differ from BENCHMARK.json %s: %s" % (
                tier, sorted(set(result["metrics"]) ^ set(declared))))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if base.get("seed") != new.get("seed"):
        print("warning: seeds differ (%s vs %s); exact counters will not "
              "match" % (base.get("seed"), new.get("seed")))
    bench = load_benchmark_json()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    problems = 0
    new_by_name = {w["workload"]: w for w in new["workloads"]}
    for b in base["workloads"]:
        n = new_by_name.get(b["workload"])
        if n is None:
            print("%s: missing from %s" % (b["workload"], new_path))
            problems += 1
            continue
        print("%s:" % b["workload"])
        if not n["correct"]:
            print("  wrong: %s" % "; ".join(n["problems"]))
            problems += 1
        base_ratio = b["failed"] / max(b["attempted"], 1)
        new_ratio = n["failed"] / max(n["attempted"], 1)
        if new_ratio > base_ratio:
            print("  failed share rose: %d/%d -> %d/%d" % (
                b["failed"], b["attempted"], n["failed"], n["attempted"]))
            problems += 1
        for name, spec in e2e.items():
            bv = b["end_to_end"][name]["value"]
            nv = n["end_to_end"][name]["value"]
            change = (nv - bv) / bv if bv else 0.0
            worse = change > 0 if spec["better"] == "lower" else change < 0
            print("  %-12s %14.4f -> %14.4f %+7.1f%%  bound %4.0f%%%s" % (
                name, bv, nv, 100 * change, 100 * spec["bound"],
                "  WORSE THAN BOUND" if worse and abs(change) > spec["bound"]
                else ""))
        for tier in ("end_to_end", "per_layer"):
            for name, m in b[tier].items():
                if m.get("exact") and n[tier][name]["value"] != m["value"]:
                    print("  exact counter %s drifted: %r -> %r" % (
                        name, m["value"], n[tier][name]["value"]))
                    problems += 1
    if problems:
        fail("%d check(s) failed" % problems)
    print("no failure, no exact counter drifted")
    return 0


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--workload")
    parser.add_argument("--trace", default="0")
    args, _ = parser.parse_known_args()
    if args.compare:
        return compare(*args.compare)
    build()
    return run(sys.argv[1:], args.workload, args.trace != "0")


if __name__ == "__main__":
    sys.exit(main())
