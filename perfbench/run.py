#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <adaptive-sweep|policy-replay|routed-serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built offline into
$CARGO_TARGET_DIR (default `.bench_build`), then run with one compute
worker (RAYON_NUM_THREADS=1). Build output goes to stderr; the benchmark's
stdout passes through unchanged, its last line being the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not os.path.isfile(os.path.join(repo, "crates", "experiments", "Cargo.toml")):
        print("perfbench: the workspace crates are missing next to perfbench/; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=build_env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    run_env = dict(os.environ, RAYON_NUM_THREADS="1")
    args = sys.argv[1:]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "routed-serve":
        # Each served request hops across five threads (client, router,
        # replica connection worker, replica pool and back). Spread over two
        # vCPUs of a shared host, a hop may have to wake a halted vCPU, and
        # pass times varied up to 2x from run to run; on one CPU they vary
        # like the single-threaded workloads.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([binary] + args, env=run_env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
