#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run builds the harness
(perfbench/CMakeLists.txt: the project's libraries plus gm_perfbench) into
.bench_build/perfbench; later runs only check that it is up to date.

A run prints a table of every metric with its unit and sample count, then,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones in
BENCHMARK.json, with --trace 1 the per-layer ones; the run's Chrome trace is
left in .bench_build/traces/. The exit status is 0 when every output check
passed, 1 when one failed, and 2 when the run could not be made (no result
line is printed then).

--self-check runs every workload at toy size and asserts that every metric
named in BENCHMARK.json is present with its unit, that the engine counts
repeat exactly across two runs of one seed, and that the traced spans nest.
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
WORKLOADS = ("pagerank-rmat", "sssp-grid", "serving-mix")
RUN_TIMEOUT_S = 170
# Engine counts that must repeat exactly across runs of one seed.
EXACT = ("pregel.supersteps", "pregel.sparse_supersteps", "pregel.messages",
         "pregel.network_bytes")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "algorithms/pagerank.gm"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target",
              "gm_perfbench"]]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "gm_perfbench")


def catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(binary, workload, seed, seconds, trace, size="full"):
    """Runs one workload; returns (exit status, stdout lines)."""
    work = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--root", ROOT, "--work-dir", work, "--size", size],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        trace_file = os.path.join(work, f"trace-{workload}.json")
        if os.path.exists(trace_file):
            shutil.move(trace_file, os.path.join(
                traces, f"{workload}-seed{seed}-{size}.json"))
    except subprocess.TimeoutExpired:
        die(f"{workload} ran longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def result_of(lines, expected):
    """Parses and validates the result line against the metric catalog."""
    if not lines:
        die("no result line")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die(f"result keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        die(f"metrics {got} differ from BENCHMARK.json {expected}")
    return res


def self_check(binary):
    end_to_end, per_layer = catalog()
    for workload in WORKLOADS:
        status, lines = run(binary, workload, 7, 1, 0, "toy")
        if status != 0:
            die(f"{workload}: exit {status}\n" + "\n".join(lines))
        result_of(lines, end_to_end)
        traced = []
        for _ in range(2):
            status, lines = run(binary, workload, 7, 1, 1, "toy")
            if status != 0:
                die(f"{workload} traced: exit {status}\n" + "\n".join(lines))
            traced.append(result_of(lines, per_layer)["metrics"])
        for name in EXACT:
            a, b = (t[name]["value"] for t in traced)
            if a != b:
                die(f"{workload}: {name} {a} then {b} at one seed")
        with open(os.path.join(ROOT, ".bench_build", "traces",
                               f"{workload}-seed7-toy.json")) as f:
            check_nesting(workload, json.load(f)["traceEvents"])
        print(f"self-check: {workload} ok")
    print("self-check passed")


def check_nesting(workload, events):
    """Every span lies inside its parent and shares its job id."""
    if not events:
        die(f"{workload}: the traced run recorded no spans")
    for ev in events:
        parent = ev["args"]["parent"]
        if parent < 0:
            continue
        p = events[parent]
        if p["args"]["job"] != ev["args"]["job"]:
            die(f"{workload}: span {ev['args']['span']} changes job id")
        slack = 1.0  # microseconds of rounding in derived spans
        if (ev["ts"] < p["ts"] - slack or
                ev["ts"] + ev["dur"] > p["ts"] + p["dur"] + slack):
            die(f"{workload}: span {ev['name']} outside parent {p['name']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if args.self_check:
        self_check(binary)
        return 0
    status, lines = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if status not in (0, 1):
        sys.stderr.write("\n".join(lines) + "\n")
        die(f"gm_perfbench exited with status {status}")
    end_to_end, per_layer = catalog()
    result_of(lines, per_layer if args.trace else end_to_end)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
