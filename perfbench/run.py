#!/usr/bin/env python3
"""End-to-end benchmark entry point for msprint.

Builds the benchmark (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload and prints, as the last line of
stdout, one JSON object with the metrics BENCHMARK.json lists: its
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

    python3 perfbench/run.py --workload pipeline|advise|storm \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The pool size is min(4, CPUs available),
passed to the library as MSPRINT_THREADS. Traced runs also write their
spans to .bench_build/perfbench/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MAX_THREADS = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def pool_threads():
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return max(1, min(MAX_THREADS, available))


def build(jobs):
    """Configures once and builds incrementally; a lock serializes builds."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench",
             "--parallel", str(jobs)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "advise", "storm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    names = wanted_metrics(args.trace)
    threads = pool_threads()
    try:
        binary = build(threads)
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--storm-dir", os.path.join(ROOT, "bench", "storms")]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, MSPRINT_THREADS=str(threads))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("perfbench exited with code %d" % proc.returncode)
        return 1

    measured = json.loads(lines[-1])
    metrics = {}
    for name in names:
        metric = measured["metrics"].get(name)
        if metric is None or not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            log("metric %s was not measured" % name)
            return 1
        metrics[name] = metric
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
