#!/usr/bin/env bash
# Perf-trajectory gate: compares the *_ns_per_iter metrics in freshly
# produced BENCH_*.json artifacts against the committed baselines in
# bench/baselines/ and fails when any benchmark got slower than the
# tolerance — by default 1.25x nanoseconds per iteration, i.e. a
# simulated-queries/sec drop of more than 20%.
#
# Usage:
#   tools/check_bench_regression.sh <artifact-dir> [baseline-dir]
#
# Every BENCH_*.json in <artifact-dir> that has a same-named committed
# baseline is compared metric by metric; artifacts without a baseline (the
# figure benches export error metrics, not throughput) are listed and
# skipped. A fresh metric with no baseline entry (a benchmark added since
# the last refresh) is printed as ungated and never fails the run. The
# gate is append-only in both directions: a baseline metric
# missing from the fresh run is a failure, and so is a committed baseline
# file with no fresh artifact at all — a renamed or deleted benchmark (or
# a bench binary dropped from the CI run) must come with a baseline
# refresh (tools/update_baselines.sh --bench), never a silent shrink of
# coverage.
#
# The per-bench delta table goes to stdout and, when $GITHUB_STEP_SUMMARY
# is set, to the job summary as a markdown table.
#
# MSPRINT_BENCH_MAX_SLOWDOWN overrides the tolerance ratio (default 1.25).
# Baselines and CI runs must come from the same runner class — the gate
# compares wall-clock nanoseconds, not machine-neutral counts.

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <artifact-dir> [baseline-dir]" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CURRENT_DIR="$1"
BASELINE_DIR="${2:-$ROOT/bench/baselines}"
MAX_SLOWDOWN="${MSPRINT_BENCH_MAX_SLOWDOWN:-1.25}"

if [ ! -d "$CURRENT_DIR" ]; then
  echo "error: artifact dir $CURRENT_DIR does not exist" >&2
  exit 2
fi

export CURRENT_DIR BASELINE_DIR MAX_SLOWDOWN
python3 - <<'EOF'
import glob
import json
import os
import sys

current_dir = os.environ["CURRENT_DIR"]
baseline_dir = os.environ["BASELINE_DIR"]
max_slowdown = float(os.environ["MAX_SLOWDOWN"])

rows = []      # (bench, baseline_ns, current_ns, ratio, status)
ungated = []   # (bench, current_ns): fresh, with no baseline entry
skipped = []
failures = 0
compared_files = 0

# File-level append-only check first: every committed baseline must have
# a same-named fresh artifact, or the run silently lost bench coverage.
missing_files = []
for baseline_path in sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
    name = os.path.basename(baseline_path)
    if not os.path.exists(os.path.join(current_dir, name)):
        missing_files.append(name)
        failures += 1

for current_path in sorted(glob.glob(os.path.join(current_dir, "BENCH_*.json"))):
    name = os.path.basename(current_path)
    baseline_path = os.path.join(baseline_dir, name)
    if not os.path.exists(baseline_path):
        skipped.append(name)
        continue
    compared_files += 1
    with open(current_path) as f:
        current = json.load(f)["metrics"]
    with open(baseline_path) as f:
        baseline = json.load(f)["metrics"]
    for key, base_ns in baseline.items():
        if not key.endswith("_ns_per_iter"):
            continue
        bench = key[: -len("_ns_per_iter")]
        if key not in current:
            rows.append((bench, base_ns, None, None, "MISSING"))
            failures += 1
            continue
        cur_ns = float(current[key])
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        status = "ok" if ratio <= max_slowdown else "REGRESSED"
        if status != "ok":
            failures += 1
        rows.append((bench, base_ns, cur_ns, ratio, status))
    for key, cur_ns in current.items():
        if key.endswith("_ns_per_iter") and key not in baseline:
            ungated.append((key[: -len("_ns_per_iter")], float(cur_ns)))

def fmt_ns(ns):
    return "-" if ns is None else f"{ns:,.1f}"

def fmt_delta(ratio):
    if ratio is None:
        return "-"
    return f"{(ratio - 1.0) * 100.0:+.1f}%"

header = ("benchmark", "baseline ns/iter", "current ns/iter", "delta", "status")
table = [header] + [
    (bench, fmt_ns(base), fmt_ns(cur), fmt_delta(ratio), status)
    for bench, base, cur, ratio, status in rows
]
widths = [max(len(r[i]) for r in table) for i in range(len(header))]
for r in table:
    print("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
print(f"\ntolerance: {max_slowdown:.2f}x ns/iter "
      f"(qps drop > {(1.0 - 1.0 / max_slowdown) * 100.0:.0f}% fails)")
for bench, cur in ungated:
    print(f"ungated (no baseline entry): {bench}  {fmt_ns(cur)} ns/iter")
for name in skipped:
    print(f"skipped (no committed baseline): {name}")
for name in missing_files:
    print(f"MISSING artifact for committed baseline: {name}", file=sys.stderr)

summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
if summary_path:
    with open(summary_path, "a") as f:
        f.write("## Bench regression gate\n\n")
        f.write("| " + " | ".join(header) + " |\n")
        f.write("|" + "|".join("---" for _ in header) + "|\n")
        for bench, base, cur, ratio, status in rows:
            mark = ":red_circle: " if status != "ok" else ""
            f.write(f"| {bench} | {fmt_ns(base)} | {fmt_ns(cur)} "
                    f"| {fmt_delta(ratio)} | {mark}{status} |\n")
        for bench, cur in ungated:
            f.write(f"| {bench} | - | {fmt_ns(cur)} | - | ungated |\n")
        f.write(f"\nTolerance {max_slowdown:.2f}x ns/iter; "
                f"{len(rows)} benchmarks compared, {failures} failing.\n")

if compared_files == 0:
    print("error: no BENCH_*.json artifact had a committed baseline", file=sys.stderr)
    sys.exit(1)
if failures:
    print(f"error: {failures} benchmark(s) regressed past {max_slowdown:.2f}x "
          f"(refresh via tools/update_baselines.sh --bench if intended)",
          file=sys.stderr)
    sys.exit(1)
print(f"bench regression gate OK ({len(rows)} benchmarks)")
EOF
