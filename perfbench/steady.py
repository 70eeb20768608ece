#!/usr/bin/env python3
"""Steadiness check: repeats each workload and reports every metric's spread.

Run from the repository root:

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                                [--seconds N] [--trace]

For every workload it runs the benchmark command from BENCHMARK.json once per
seed, `--sets` times over (set 1 runs every seed, then set 2, ...). It prints
each metric's median and quartiles per set, and the spread — the distance
between the quartiles as a share of the median — against the metric's bound.

It fails (exit 1) when a run fails or reports incorrect output, when an exact
counter or the share of failed operations differs between two runs of the same
seed, when a spread other than set-up time's exceeds its bound, or when a later
set's median is worse than the first set's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    counts = json.loads(lines[-2])["counts"]
    return result, counts


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="check the per-layer metrics instead")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    failures = []
    for workload in args.workloads.split(","):
        runs = {}  # (set, seed) -> (result, counts)
        for s in range(args.sets):
            for seed in seeds:
                result, counts = run_once(bench, workload, seed, args.seconds, args.trace)
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: incorrect output")
                runs[(s, seed)] = (result, counts)
                print(f"{workload} set {s + 1} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in runs.values()}
        if len(shares) > 1:
            failures.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for seed in seeds:
            first = runs[(0, seed)][1]
            for s in range(1, args.sets):
                if runs[(s, seed)][1] != first:
                    failures.append(f"{workload} seed {seed}: exact counters differ between sets")
        print(f"\n{workload} ({len(seeds)} seeds x {args.sets} sets, {args.seconds} s runs)")
        print(f"  {'metric':40s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for metric in metrics:
            name, bound = metric["name"], metric.get("bound")
            medians = []
            for s in range(args.sets):
                values = [runs[(s, seed)][0]["metrics"][name]["value"] for seed in seeds]
                med, q1, q3, share = spread(values)
                medians.append(med)
                bound_text = f"{bound:.2f}" if bound is not None else "-"
                flag = ""
                if bound is not None and name != "setup_s":
                    if share > bound:
                        flag = "  OVER BOUND"
                        failures.append(f"{workload} {name}: spread {share:.3f} > bound {bound}")
                    elif share > bound / 3:
                        flag = "  above a third of the bound"
                print(f"  {name:40s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{share:7.3f} {bound_text:>6s}{flag}")
            if bound is not None:
                worse_is_higher = metric["better"] == "lower"
                for s, med in enumerate(medians[1:], start=2):
                    drift = (med - medians[0]) / medians[0]
                    if (drift if worse_is_higher else -drift) > bound:
                        failures.append(f"{workload} {name}: set {s} median worse by {drift:+.3f}")
    for failure in failures:
        print(f"steady: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
