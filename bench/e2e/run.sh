#!/usr/bin/env bash
# Builds bench_e2e (peb_core plus bench_e2e.cc, Release) into build/bench-e2e
# and runs the end-to-end benchmark. Arguments go to run.py:
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace]
#                    [--out DIR] [--repeat N]
#
# Build output goes to stderr so stdout carries only the report.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build/bench-e2e"
cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_e2e --parallel 4 >&2
exec python3 "$root/bench/e2e/run.py" --bin "$build/bench_e2e" "$@"
