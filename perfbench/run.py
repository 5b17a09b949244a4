#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark executable is built
with dune into .bench_build/ (no shared dune cache, so nothing is
written outside the tree), then run with the same arguments. A traced
run also writes its spans as Chrome trace-event JSON to
.bench_build/traces/. The last line of standard output is the
benchmark's JSON result; the exit code is non-zero if the build or the
run fails, or if any answer was wrong.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} not found; run from the root of a source tree")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"run.py: build failed with code {build.returncode}")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    # The benchmark and the helper it forks to time the reference
    # computation share one core, so the reference measures the core the
    # workload runs on.
    cpu = max(os.sched_getaffinity(0))
    run = subprocess.run(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
