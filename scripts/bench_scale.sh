#!/usr/bin/env bash
# Scale-tier bench run: build the Release + LTO preset and run the scale
# microbenchmark (10k-wire hierarchical sweep, region batching traffic,
# 100k-wire dynamic scheduling), writing BENCH_scale.json. Diff against the
# checked-in baseline:
#   scripts/bench_compare.py BENCH_scale.json /tmp/BENCH_scale.json
#
# The full-size sweep (100k wires by default; LOCUS_SCALE_WIRES /
# LOCUS_SCALE_PROCS override) is a separate binary because it is minutes,
# not seconds, and its wall clock is not a gated baseline:
#   ./build-release/bench/scale_sweep
#
#   scripts/bench_scale.sh            # write BENCH_scale.json at the repo root
#   scripts/bench_scale.sh OUTDIR     # write it somewhere else
set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR="${1:-.}"
mkdir -p "$OUTDIR"

cmake --preset release >/dev/null
cmake --build --preset release -j --target micro_scale

./build-release/bench/micro_scale --json="$OUTDIR/BENCH_scale.json"

echo "bench record: $OUTDIR/BENCH_scale.json"
