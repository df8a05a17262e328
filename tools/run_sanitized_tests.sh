#!/usr/bin/env bash
# Builds the asan preset (-fsanitize=address,undefined) and runs the tier-1
# ctest suite under it, so the concurrency paths (thread pool, distributed
# fault recovery) are exercised with sanitizers on every change. Then runs
# the fixed-seed fuzz smoke batches (label "fuzz") under the same build —
# including the dedicated governance batch, which drives all three engines
# through cancellation, simulated deadlines, and randomized memory budgets.
# The fuzzer's randomized datasets and config combinations reach kernel and
# enumeration paths the unit suites hold constant. Skip them with
# SLICELINE_SKIP_FUZZ_SMOKE=1 when iterating on an unrelated failure.
#
# Finally builds the tsan preset (-fsanitize=thread) and runs the
# concurrency-sensitive suites under it (governance/checkpoint, determinism,
# thread pool, the observability registry/trace suites, the serving
# subsystem's scheduler/cache/server suites, and the remote-distribution
# coordinator/worker suites plus the wire-protocol edge cases): cross-thread
# cancellation, the ambient memory-budget accounting, the sharded metric
# counters, the scheduler's state/counter handoff, and the worker serving
# thread's shutdown handshake are exactly the code where a missed
# acquire/release shows up as a data race rather than a wrong answer. Skip
# with SLICELINE_SKIP_TSAN=1.
#
# Usage: tools/run_sanitized_tests.sh [ctest-args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

ctest --preset asan "$@"
if [[ "${SLICELINE_SKIP_FUZZ_SMOKE:-0}" != "1" ]]; then
  ctest --preset asan-fuzz-smoke "$@"
fi

if [[ "${SLICELINE_SKIP_TSAN:-0}" != "1" ]]; then
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  ctest --preset tsan "$@"
fi
