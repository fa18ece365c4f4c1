#!/usr/bin/env python3
"""Build the soclearn benchmark and run one workload.

Run from the repository root:

    python3 socbench/run.py --workload il-serving --seed 1 --seconds 30 --trace 0

The script builds `socbench/` (a standalone Cargo package depending on the
workspace crates by path) into `$CARGO_TARGET_DIR` (default `.bench_build`),
prints one line recording the host and the seed, then runs the benchmark
binary, whose last output line is the result object.  The exit code is the
binary's: non-zero when an output check failed or the build did not succeed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("il-serving", "fleet-drain", "hetero-replay")
BUILD_TIMEOUT_S = 840


def host_fingerprint():
    """Cores, CPU model and compiler version of the measuring host."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=60, check=False
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {"cores": os.cpu_count(), "cpu_model": model, "rustc": rustc}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"socbench: build failed: {error}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("socbench: build failed", file=sys.stderr)
        return 1

    record = {"host": host_fingerprint(), "seed": args.seed, "workload": args.workload,
              "seconds": args.seconds, "trace": int(args.trace)}
    print("record " + json.dumps(record, sort_keys=True), flush=True)
    binary = os.path.join(target, "release", "socbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, timeout=args.seconds + 120, check=False).returncode
    except subprocess.TimeoutExpired:
        print("socbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
