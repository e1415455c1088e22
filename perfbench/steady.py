#!/usr/bin/env python3
"""Steadiness check: repeats the benchmark and reports each metric's spread.

    python3 perfbench/steady.py --workload cas --workload stream -k 10

Run from the repository root. Each repetition is a separate process with
its own seed (seed-base, seed-base+1, ...). For every metric it prints the
median, the first and third quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median. With --trace 0 it also prints the metric's
bound from BENCHMARK.json and marks a spread at or above a third of it.
--raw also prints each run's end-to-end figures and the host's CPU steal
during its window. The exit code is 1 if any repetition failed or
reported correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, None, wall
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return json.loads(lines[-1]), env, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("-k", type=int, default=10, help="repetitions per workload")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--raw", action="store_true", help="also print every run's figures")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for w in args.workload:
        values, walls = {}, []
        for i in range(args.k):
            seed = args.seed_base + i
            rep, env, wall = run_once(w, seed, seconds, args.trace)
            walls.append(wall)
            if rep is None or not rep["correct"]:
                print(f"{w}: run {i} failed", flush=True)
                ok = False
                continue
            for name, m in rep["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.raw:
                shown = " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(rep["metrics"].items())
                                 if n in bounds and n != "ok_ratio")
                print(f"  {w} seed={seed} steal={env.get('steal_pct', 0):.2f}% {shown}", flush=True)
        print(f"== {w}: {args.k} runs of {seconds}s, trace={args.trace}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f}s")
        print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            mark = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                mark = "  <-- spread >= bound/3"
            print(f"{name:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{mark}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
