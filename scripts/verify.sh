#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# run the checking-subsystem tests (`ctest -L check`), the reliable
# transport tests (`ctest -L transport`), and the interconnect tests
# (`ctest -L network`) explicitly so a label regression (tests silently
# dropping out of a label) is caught.
#
#   scripts/verify.sh             # tier-1
#   scripts/verify.sh --sanitize  # same suite under ASan + UBSan
#   scripts/verify.sh --tsan      # pool suites under ThreadSanitizer
#                                 # at LOCUS_THREADS=4
#   scripts/verify.sh --bench     # tier-1 + pool determinism gate: the
#                                 # full reproduce_paper report, a
#                                 # dyn-local scale sweep, the topology sweep
#                                 # and the scale sweep under each link cost
#                                 # model must emit identical rows at
#                                 # pool widths 1 and 4
#                                 # (host time is perfbench's job; see
#                                 # perfbench/README.md)
#
# The tools' rejections of bad flags, the observability export
# (StrategyExplorer.ExportsObsArtifacts) and the checked check_tool sweeps
# (CheckTool.OracleOnTiny, CheckTool.FaultsOnBnre, CheckTool.RecoveryOnTiny,
# CheckTool.TopologyOnTiny: check_tool exits 1 on a failed row) are ctest
# tests, run by tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_FLAGS=()
RUN_BENCH=0
if [[ "${1:-}" == "--sanitize" ]]; then
  BUILD_DIR=build-sanitize
  CMAKE_FLAGS+=(-DLOCUS_SANITIZE=address,undefined)
elif [[ "${1:-}" == "--tsan" ]]; then
  # Race check for the pool fan-outs: only the suites that actually
  # spawn threads, at a real pool width.
  cmake --preset tsan
  cmake --build --preset tsan -j --target locus_tests locus_pool_tests \
    locus_check_tests locus_transport_tests
  ctest --preset tsan-threads -j "$(nproc)"
  exit 0
elif [[ "${1:-}" == "--bench" ]]; then
  RUN_BENCH=1
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j

cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"

# The check, transport, and network labels must exist and pass on their own:
# without --no-tests=error, ctest exits 0 on a label that matches no test.
ctest -L check --no-tests=error --output-on-failure -j "$(nproc)"
ctest -L transport --no-tests=error --output-on-failure -j "$(nproc)"
ctest -L network --no-tests=error --output-on-failure -j "$(nproc)"

# Optional pool determinism gates: every run below must print the same
# data rows at pool widths 1 and 4.
if [[ "$RUN_BENCH" == 1 ]]; then
  cd ..
  # Pool determinism gate: the table fan-outs must write a byte-identical
  # full report at any thread count.
  for threads in 1 4; do
    "./$BUILD_DIR/examples/reproduce_paper" --threads="$threads" \
      --out="/tmp/locus-report-$threads.md" > /dev/null
  done
  if ! cmp /tmp/locus-report-1.md /tmp/locus-report-4.md; then
    echo "FAIL: report diverges between --threads=1 and --threads=4" >&2
    exit 1
  fi
  echo "pool determinism: full report identical at --threads=1 and =4"
  # Dynamic-assignment sweep determinism gate: the locality grant protocol
  # is simulated-time deterministic, so a small sweep must emit
  # byte-identical data rows at any pool width (only wall-time lines and
  # the wall-clock-dependent counters may differ).
  LOCUS_SCALE_WIRES=2000 LOCUS_SCALE_PROCS=16 LOCUS_SCALE_MODES=geo,dyn-local \
    "./$BUILD_DIR/bench/scale_sweep" --threads=1 \
    | grep -v 'built in\|total wall time' > /tmp/locus-dyn-serial.txt
  LOCUS_SCALE_WIRES=2000 LOCUS_SCALE_PROCS=16 LOCUS_SCALE_MODES=geo,dyn-local \
    "./$BUILD_DIR/bench/scale_sweep" --threads=4 \
    | grep -v 'built in\|total wall time' > /tmp/locus-dyn-pooled.txt
  if ! diff -u /tmp/locus-dyn-serial.txt /tmp/locus-dyn-pooled.txt; then
    echo "FAIL: dyn-local sweep diverges between --threads=1 and --threads=4" >&2
    exit 1
  fi
  echo "dynamic-sweep determinism: dyn-local identical at --threads=1 and =4"
  # Interconnect determinism gates. First the full topology sweep — four MP
  # schedules x {mesh, torus, fat-tree} x {fixed, md1} with per-link
  # utilization columns — must emit byte-identical output at any pool width
  # (check_tool's fan-outs read their width from LOCUS_THREADS).
  # Then the scale sweep is re-priced under the fixed and the M/D/1 link
  # cost models: each must match itself across widths 1 and 4 (queueing
  # waits are functions of cumulative simulated busy time, never of which
  # worker ran the job).
  LOCUS_THREADS=1 "./$BUILD_DIR/examples/check_tool" topology --circuit=bnre \
    --procs=16 > /tmp/locus-topo-serial.txt
  LOCUS_THREADS=4 "./$BUILD_DIR/examples/check_tool" topology --circuit=bnre \
    --procs=16 > /tmp/locus-topo-pooled.txt
  if ! diff -u /tmp/locus-topo-serial.txt /tmp/locus-topo-pooled.txt; then
    echo "FAIL: topology sweep diverges between LOCUS_THREADS=1 and =4" >&2
    exit 1
  fi
  echo "topology-sweep determinism: identical at LOCUS_THREADS=1 and =4"
  for model in fixed md1; do
    LOCUS_SCALE_WIRES=2000 LOCUS_SCALE_PROCS=16 LOCUS_SCALE_MODES=geo \
      LOCUS_SCALE_COST_MODEL="$model" \
      "./$BUILD_DIR/bench/scale_sweep" --threads=1 \
      | grep -v 'built in\|total wall time' > /tmp/locus-cost-serial.txt
    LOCUS_SCALE_WIRES=2000 LOCUS_SCALE_PROCS=16 LOCUS_SCALE_MODES=geo \
      LOCUS_SCALE_COST_MODEL="$model" \
      "./$BUILD_DIR/bench/scale_sweep" --threads=4 \
      | grep -v 'built in\|total wall time' > /tmp/locus-cost-pooled.txt
    if ! diff -u /tmp/locus-cost-serial.txt /tmp/locus-cost-pooled.txt; then
      echo "FAIL: $model sweep diverges between --threads=1 and --threads=4" >&2
      exit 1
    fi
    echo "cost-model determinism: $model identical at --threads=1 and =4"
  done
fi
