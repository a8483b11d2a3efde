#!/usr/bin/env python3
"""Repeat-run statistics for the frap end-to-end benchmark.

    python3 perfbench/repeat.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--seconds S] [--first-seed N] [--out FILE]

Runs perfbench/run.py --runs times per workload, each run with its own
seed, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. Fails (exit 1) when a
spread other than setup_s exceeds its bound, when the share of failed
operations differs between runs, or, with --sets 2, when the second set's
median is worse than the first's by more than the bound. Spreads below a
third of the bound are marked steady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"repeat: {workload} seed {seed} failed ({proc.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (negative: better)."""
    if metric["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="write every run's result here as JSON")
    a = p.parse_args()
    if a.runs < 2:
        sys.exit("repeat: --runs must be at least 2")

    metrics = spec["end_to_end"]
    results = {}  # workload -> set -> [result]
    ok = True
    for w in a.workloads.split(","):
        results[w] = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                seed = a.first_seed + s * a.runs + i
                runs.append(run_once(w, seed, a.seconds))
                print(f"  {w} set {s + 1} seed {seed} done", file=sys.stderr)
            results[w].append(runs)

        print(f"\n{w}  ({a.runs} runs x {a.sets} set(s), {a.seconds} s each)")
        print(f"  {'metric':16} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}")
        shares = {r["failed"] / r["attempted"]
                  for runs in results[w] for r in runs}
        if len(shares) > 1:
            print(f"  FAIL: failed share differs between runs: {shares}")
            ok = False
        for m in metrics:
            meds = []
            for s, runs in enumerate(results[w]):
                med, q1, q3, spread = summarize(
                    [r["metrics"][m["name"]]["value"] for r in runs])
                meds.append(med)
                flag = ""
                if m["name"] != "setup_s":
                    if spread > m["bound"]:
                        flag, ok = "FAIL", False
                    elif spread < m["bound"] / 3:
                        flag = "steady"
                print(f"  {m['name']:16} {s + 1:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>8.4f} {m['bound']:>6} {flag}")
            if len(meds) == 2:
                shift = worse_by(m, meds[0], meds[1])
                verdict = "ok" if shift <= m["bound"] else "FAIL"
                ok &= verdict == "ok"
                print(f"  {m['name']:16} second set worse by {shift:+.4f} "
                      f"(bound {m['bound']}): {verdict}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
