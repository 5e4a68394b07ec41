#!/usr/bin/env python3
"""Steadiness report: runs every workload repeatedly and compares spreads to bounds.

    python3 perfbench/steady.py

Run from the repository root. Each workload of BENCHMARK.json runs once per
seed 1..10 through run.py with --trace 0 and --seconds run_seconds, then
once more on seed 1, which must reproduce that run's outcome mix exactly
(run.py marks it incorrect otherwise). For every end-to-end metric the
report prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound, and the same for
the machine-speed reference every run prints. The bounds in
BENCHMARK.json rest on this report: every spread should stay below a third
of its bound, and the report says "NOT steady" when a run is incorrect or
a spread exceeds its bound.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def run(workload, seed, seconds):
    started = time.time()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} exited with {done.returncode}")
    result = json.loads(lines[-1])
    mix = next((l for l in lines if l.startswith("mix: ")), "mix: ?")
    reference = next(float(l.split()[1]) for l in lines if l.startswith("reference_ms: "))
    return result, mix, reference, time.time() - started


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        references = []
        for seed in SEEDS + SEEDS[:1]:
            result, mix, reference, wall = run(workload, seed, bench["run_seconds"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {mix} ({wall:.1f} s)",
                  flush=True)
            steady &= result["correct"]
            if len(values["setup_s"]) < len(SEEDS):
                references.append(reference)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            steady &= spread <= bound
            print(f"{workload}: {name:16} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f} {spread / bound:12.3f}"
                  f"{'' if spread <= bound / 3 else '  above a third of the bound'}",
                  flush=True)
        q1, q2, q3 = statistics.quantiles(references, n=4)
        print(f"{workload}: {'reference_ms':16} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / q2:8.4f}  (machine speed, no bound)", flush=True)
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
