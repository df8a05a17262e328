#!/usr/bin/env python3
"""Builds and runs the SliceLine benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-wide|batch-tall|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds the repository's libraries and the
benchmark into .bench_build/ (CMake, Release); later runs rebuild only what
changed. Build output goes to stderr. The benchmark's own output goes to
stdout; its last line is the JSON result. That line and, for a traced run,
the Chrome trace are validated with the repository's json_validate tool.
The exit code is non-zero when the build, an output check or a validation
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
# One run is well under this; a hung run is killed instead of blocking.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def json_valid(path):
    validator = os.path.join(BUILD, "json_validate")
    return subprocess.run([validator, path]).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    os.makedirs(WORK, exist_ok=True)

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--spec", os.path.join(ROOT, "BENCHMARK.json"),
               "--work-dir", os.path.relpath(WORK, ROOT)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    code = run.returncode

    # Validate the result line and the trace with json_validate.
    stem = f"{args.workload}_{args.seed}_{args.trace}"
    result_path = os.path.join(WORK, f"result_{stem}.json")
    with open(result_path, "w") as f:
        f.write(lines[-1] + "\n")
    to_check = [result_path]
    if args.trace == "1":
        traces = [os.path.join(ROOT, line.split()[-1]) for line in lines
                  if line.startswith("trace_file ")]
        if not traces:
            print("perfbench: traced run wrote no trace", file=sys.stderr)
            code = code or 1
        to_check += traces
    for path in to_check:
        if not json_valid(path):
            print(f"perfbench: {path} is not valid JSON", file=sys.stderr)
            code = code or 1

    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
