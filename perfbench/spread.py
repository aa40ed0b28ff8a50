#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload <name>]...

Runs `perfbench/run.py` once per seed on each workload (all of them by
default), from the root of a checkout, and prints for every end-to-end
metric its median and its quartile spread, (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`, next to the metric's
bound from BENCHMARK.json. A spread at or above a third of the bound is
flagged; `setup_s` is exempt, as its spread is not bounded.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"{w} seed {seed}: exit code {run.returncode}", file=sys.stderr)
                return 1
            metrics = json.loads(run.stdout.strip().split("\n")[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        for name, vs in values.items():
            med, s = spread(vs)
            ok = name == "setup_s" or s < bounds[name] / 3
            steady &= ok
            print(f"{w:20} {name:24} median {med:<14.6g} spread {s:8.4f}"
                  f"  bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}"
                  f"  [{' '.join(f'{v:.4g}' for v in vs)}]", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
