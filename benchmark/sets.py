#!/usr/bin/env python3
"""Runs the benchmark in sets and checks that the sets agree.

    benchmark/run.sh --sets N --runs R [--seed S]

Each set runs every workload R times, untraced, each run in its own process
with seeds S..S+R-1 (the same seeds in every set). For each end-to-end
metric of BENCHMARK.json it prints, per workload and set, the median, the
quartiles and the spread (quartile distance over median).

Exit status 1 when a run fails or reports incorrect output, when a spread
exceeds the metric's bound (setup_s excepted), or when a later set's median
is worse than the first set's by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(ROOT, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"sets.py: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.sets < 1 or args.runs < 1 or args.seed < 1:
        parser.error("--sets, --runs and --seed must be positive")

    cores = os.cpu_count() or 1
    if cores < 4:
        raise SystemExit(f"sets.py: refusing to record on {cores} cores; "
                         "fig13_sweep needs 4")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = {m["name"] for m in metrics}

    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    print(f"# sets.py sha={sha or 'none'} build=Release nproc={cores} "
          f"seeds={args.seed}..{args.seed + args.runs - 1} "
          f"seconds={seconds}")

    ok = True
    # values[workload][set][metric] -> list of run values
    values = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            per_metric = {m: [] for m in names}
            for r in range(args.runs):
                result = run_once(w, args.seed + r, seconds)
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {w} seed {args.seed + r}: "
                          f"{result['failed']} of {result['attempted']} "
                          "outputs wrong")
                    ok = False
                if set(result["metrics"]) != names:
                    print(f"FAIL {w}: metrics {sorted(result['metrics'])} "
                          f"do not match BENCHMARK.json")
                    ok = False
                for m in names & set(result["metrics"]):
                    per_metric[m].append(result["metrics"][m]["value"])
            values[w].append(per_metric)

    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s, per_metric in enumerate(values[w]):
                q1, med, q3 = quartiles(per_metric[name])
                spread = (q3 - q1) / med if med else 0.0
                note = ""
                if name != "setup_s" and spread > bound:
                    note += " SPREAD>BOUND"
                    ok = False
                if first is None:
                    first = med
                else:
                    worse = (med - first) if m["better"] == "lower" \
                        else (first - med)
                    if first and worse / first > bound:
                        note += " WORSE>BOUND"
                        ok = False
                print(f"{w:20s} {name:12s} set{s + 1} median={med:.6g} "
                      f"q1={q1:.6g} q3={q3:.6g} {m['unit']} "
                      f"spread={spread:.2%} bound={bound:.0%}{note}")
    print("sets agree" if ok else "sets DISAGREE or runs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
