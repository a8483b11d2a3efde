#!/usr/bin/env python3
"""Runs one workload of the frap end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles frap from
src/) into $CARGO_TARGET_DIR, default .bench_build, runs the workload,
checks that the result names every metric BENCHMARK.json lists for the
mode with its unit and a finite value (nonzero for end-to-end metrics),
and prints the result as the last line of standard output. Exits nonzero,
without a result line, when the build, the run or a check fails.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures and builds frapbench under `out`; returns the binary."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "frapbench", "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail(f"build step {cmd[:2]} failed: {e}")
                if rc != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail(f"build failed (log: {log_path})")
    binary = os.path.join(out, "frapbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no frapbench binary")
    return binary


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace, workload):
    spec, expected = expected_metrics(trace)
    if workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {workload!r} is not in BENCHMARK.json")
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    if res["correct"] is not True:
        fail("the workload's output checks failed")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        fail("attempted/failed are not counts")
    got = res["metrics"]
    if set(got) != set(expected):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            fail(f"{name} has unit {got[name]['unit']}, expected {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number: {value!r}")
        if not trace and value == 0:
            fail(f"{name} is 0")
    return res


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{a.workload} exited with {proc.returncode}")
    res = check_result(lines[-1], a.trace, a.workload)
    print(f"perfbench: {a.workload} seed {a.seed}: attempted "
          f"{res['attempted']}, failed {res['failed']}", file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
