#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hit_replay --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the root); build output goes to
standard error. The benchmark's own report is passed through, and its last
line is one JSON object with the keys correct, attempted, failed, metrics.

Each run's outcome mix is recorded under the build directory, keyed by the
benchmark binary's digest, workload, seed and seconds. The plan is a pure
function of those, so a run whose mix differs from an earlier run of the
same binary and plan is marked incorrect. With --trace 1 the span trace is
written next to the record.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (exit {done.returncode})")
    binary = os.path.join(target, "release", "quhe-perfbench")
    with open(binary, "rb") as f:
        return binary, hashlib.sha256(f.read()).hexdigest()[:16]


def check_mix(record_path, key, mix):
    """Records `mix` under `key`; returns the earlier mix if it differs."""
    records = {}
    if os.path.exists(record_path):
        with open(record_path) as f:
            records = json.load(f)
    earlier = records.setdefault(key, mix)
    with open(record_path + ".tmp", "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
    os.replace(record_path + ".tmp", record_path)
    return earlier if earlier != mix else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary, digest = build(target)
    runs = os.path.join(target, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(runs, f"spans-{args.workload}-{args.seed}.tsv")
        command += ["--spans", spans]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: the benchmark exited with code {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    mix = next((l[len("mix: "):] for l in lines if l.startswith("mix: ")), None)
    key = f"{digest}/{args.workload}/{args.seed}/{args.seconds}"
    earlier = check_mix(os.path.join(runs, "mixes.json"), key, mix)
    if earlier is not None:
        print(f"invalid: mix differs from an earlier run of this binary and plan: {earlier}")
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
