#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--trace 0]

Runs run.py once per seed (run_seconds from BENCHMARK.json) and prints, per
metric, the median of its values and their interquartile range as a share
of that median (statistics.quantiles(values, n=4)), next to a third of the
metric's bound: the steadiness target for every metric except setup_s.
Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    first, _, last = spec.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
        if run.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        line = f"{name:32s} median {median:.6g}"
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"  spread {(q3 - q1) / median:.4f}"
        if bounds.get(name) is not None:
            line += f"  (target < {bounds[name] / 3:.4f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
