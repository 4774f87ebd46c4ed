#!/usr/bin/env bash
# Regenerate BENCH_flood.json: Release-build the round-engine bench and run
# it on the full grid (n 1e3,1e4,1e5,1e6 x threads 1,2,4,8; modes off and
# perf everywhere, metrics/trace/channel at threads=1).
#
#   scripts/bench_flood.sh [--quick] [build-dir] [bench args...]
#
# --quick drops the 1e6 row and the 8-thread column (a row subset of the
# full grid, so scripts/bench_check.py still matches its rows) and writes
# the same BENCH_flood.json. The run compares its 'off' rows against the
# BENCH_flood.json it is about to replace (a warning when one falls below
# 98%). Extra arguments after the build dir are passed through, e.g.
#   scripts/bench_flood.sh build --repeats=3
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK_ARGS=()
if [ "${1:-}" = "--quick" ]; then
  QUICK_ARGS=(--sizes=1000,10000,100000 --threads=1,2,4)
  shift
fi

BUILD_DIR="${1:-build}"
shift || true

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_flood
"$BUILD_DIR/bench/bench_flood" --json=BENCH_flood.json \
  ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} "$@"
