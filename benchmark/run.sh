#!/usr/bin/env bash
# Build ifbench (Release, into build-benchmark/ at the checkout root) and
# run it.
#
#   benchmark/run.sh            full figure grid: 4 workloads x 40 seeds,
#                               two passes, a 10-seed traced pass, the
#                               runExperiment() tie-in check; prints every
#                               metric with its unit, writes
#                               benchmark/results.json, and compares the
#                               end-to-end metrics with baseline.json.
#   benchmark/run.sh --smoke    2 seeds, one pass, no baseline bounds.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                               one benchmark run of one workload; the
#                               last stdout line is its JSON result.
#
# Exits non-zero when the build fails or any point fails its checks.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"
jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then
    jobs=4
fi

# Build output goes to stderr: stdout carries only results.
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

ifbench=("$build/ifbench" --digests "$here/expected_digests.json")
case "${1:-}" in
    "")
        if [ -f "$here/baseline.json" ]; then
            set -- --against "$here/baseline.json"
        fi
        exec "${ifbench[@]}" --grid full --out "$here/results.json" "$@"
        ;;
    --smoke)
        exec "${ifbench[@]}" --grid smoke
        ;;
    *)
        exec "${ifbench[@]}" "$@"
        ;;
esac
