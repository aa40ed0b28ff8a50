#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `qf-perfbench` package (release, default features only), prints
a machine stanza, runs the workload, and checks that the result line names
exactly the metrics BENCHMARK.json lists for the mode (`end_to_end` for
`--trace 0`, `per_layer` for `--trace 1`), each with its unit. The result
line is printed last only when that check passes.
"""

import json
import math
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected_metrics(spec, traced):
    """Metric name -> unit that a run in this mode must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, expected):
    """Parse the benchmark's last output line; return (result, problems)."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return None, [f"result line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, [f"result keys must be {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"] if isinstance(result["metrics"], dict) else {}
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unexpected metric {name}")
    for name in sorted(set(expected) & set(metrics)):
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: expected value and unit")
            continue
        if m["unit"] != expected[name]:
            problems.append(f"{name}: unit {m['unit']!r}, expected {expected[name]!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return result, problems


def command_output(args):
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath("."):
        return "none (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine():
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "pmu": "none",
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": git_commit(),
        "features": "default (telemetry and trace off)",
    }


def flag(argv, name):
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    return None


def main(argv):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    traced = flag(argv, "--trace") == "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    binary = os.path.join(target, "release", "qf-perfbench")
    print("machine: " + json.dumps(machine()), flush=True)
    run = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result, problems = check_result(lines[-1], expected_metrics(spec, traced))
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    if run.returncode != 0 or not result["correct"]:
        print("run.py: the benchmark's output checks failed", file=sys.stderr)
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
