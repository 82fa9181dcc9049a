#!/usr/bin/env bash
# Regenerates — or, with --check, verifies — the committed fast-mode
# observability baselines in bench/baselines/.
#
# The baselines are deterministic exports of a fixed fault-storm testbed
# recipe: the span attribution report (`msprint explain`) and the metrics
# snapshot (`msprint stats`). CI regenerates them and compares with
# `msprint obs-diff`; the check tolerances are nonzero (unlike the
# byte-diff determinism gates) because the recipe crosses libm: different
# hosts may round transcendentals differently, which perturbs values
# without moving the metric taxonomy. A real regression — a metric that
# disappears, a count that jumps, a latency component that grows — still
# breaches.
#
# It also owns the perf-trajectory baseline: `--bench` reruns the
# MSPRINT_BENCH_FAST microbenchmark suite and rewrites
# bench/baselines/BENCH_micro.json, the reference that
# tools/check_bench_regression.sh gates CI runs against. Refresh it from
# the same runner class CI uses — the gate compares wall-clock
# nanoseconds.
#
# Usage:
#   tools/update_baselines.sh            # rewrite the obs baselines
#   tools/update_baselines.sh --check    # verify obs baselines vs fresh run
#   tools/update_baselines.sh --bench    # rewrite the bench perf baseline
#
# MSPRINT_BUILD_DIR overrides the build tree (default: <repo>/build).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${MSPRINT_BUILD_DIR:-$ROOT/build}"
MSPRINT="$BUILD/tools/msprint"
BASELINES="$ROOT/bench/baselines"

if [ "${1:-}" = "--bench" ]; then
  BENCH="$BUILD/bench/bench_micro"
  if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not built (set MSPRINT_BUILD_DIR?)" >&2
    exit 1
  fi
  # Same invocation as CI's perf job: fast mode, the throughput-critical
  # benchmark families only, json artifact as the sole output.
  MSPRINT_BENCH_FAST=1 MSPRINT_BENCH_DIR="$BASELINES" "$BENCH" --json-only \
    --benchmark_filter='BM_SimRun|BM_TestbedRun|BM_TestbedSummarize|BM_EventQueueChurn|BM_HeapChurnReference|BM_TickSimulator|BM_SketchInsert|BM_WindowRoll|BM_WindowRollSparse|BM_WhatifExperiment'
  echo "bench baseline written to $BASELINES/BENCH_micro.json"
  exit 0
fi

if [ ! -x "$MSPRINT" ]; then
  echo "error: $MSPRINT not built (set MSPRINT_BUILD_DIR?)" >&2
  exit 1
fi

# The fast-mode storm recipe: small enough for CI, stormy enough that every
# span component (interference, fault delay, toggle overhead, sprint
# delta) is exercised.
STORM="--workload Jacobi --seed 7 --queries 1200 --toggle-fail 0.2 \
  --breaker-trips 4 --outliers 0.05 --flash-crowds 1"

generate() {
  local dir="$1"
  mkdir -p "$dir"
  # shellcheck disable=SC2086
  "$MSPRINT" explain $STORM --top 3 > "$dir/explain_tb_storm.txt"
  # shellcheck disable=SC2086
  "$MSPRINT" stats $STORM > "$dir/stats_tb_storm.txt" 2> /dev/null
}

if [ "${1:-}" = "--check" ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  generate "$tmp"
  status=0
  for name in explain_tb_storm.txt stats_tb_storm.txt; do
    if [ ! -f "$BASELINES/$name" ]; then
      echo "missing baseline: bench/baselines/$name (run $0)" >&2
      status=1
      continue
    fi
    echo "== obs-diff $name"
    "$MSPRINT" obs-diff "$BASELINES/$name" "$tmp/$name" \
      --max-rel 0.05 --abs-eps 1e-6 || status=$?
  done
  exit "$status"
fi

generate "$BASELINES"
echo "baselines written to $BASELINES"
