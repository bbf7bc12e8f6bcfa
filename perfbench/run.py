#!/usr/bin/env python3
"""End-to-end work/s benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. Build output goes to stderr. The last stdout line is
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics. The run is split
over consecutive perfbench processes of PROCESS_SECONDS each (at least one
pass each). Every pass cuts its timed requests into chunks of equal request
count, each about 5-20 ms of work, and reports each chunk's work rate and
latency percentiles; they are pooled here over all passes of the run.

The timings come from the fastest FAST_SHARE of those chunks (by work
rate, at least FAST_MIN). Interference from other tenants only adds
time, so the fastest chunks come closest to the program's own cost. On the
shared 4-vCPU Xeon VM this benchmark was tuned on, the same code ran up to
2x slower from one chunk to the next, with no steal time (CPU time equalled
wall time), and how much of a run was slowed drifted over minutes. Over ten
30-second runs per workload, total work / total time spread (interquartile
range / median) 0.04-0.12 in calm hours and 0.10-0.43 while the host's
load drifted; the mean rate of the fastest 5% of chunks spread 0.02-0.07
and 0.09-0.17.

  work_per_s        mean work rate of the fastest chunks
  sim_cycles        simulated cycles of one pass (every pass must agree)
  setup_s           mean of the fastest FAST_SHARE of the per-pass set-up
                    times (at least FAST_MIN), for the same reason
  peak_rss_mb       largest peak resident memory of a process after its
                    first pass
  latency_p50_us    mean over the same chunks of each chunk's median
                    request latency
  latency_p99_us    mean over the same chunks of each chunk's 99th
                    percentile

--trace 1 runs one process that reports BENCHMARK.json's per_layer metrics
and writes <build>/out/<workload>.trace.json.

The exit code is nonzero when the sources are missing, the build fails, an
answer is wrong, or the result does not carry exactly the declared metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
PROCESS_SECONDS = 1
FAST_SHARE = 0.05
FAST_MIN = 3


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(binary, a, seconds, out_dir):
    """Runs one perfbench process; returns its stdout lines."""
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds),
           "--trace", str(a.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{a.workload} exited with code {proc.returncode}", proc.returncode)
    return proc.stdout.strip().splitlines()


def fastest(ranked):
    """The first FAST_SHARE of `ranked` (fastest first), at least
    FAST_MIN."""
    return ranked[:max(FAST_MIN, math.ceil(FAST_SHARE * len(ranked)))]


def fastest_chunks(passes):
    """(work rate, p50, p99) of the fastest chunks of `passes`."""
    return fastest(sorted(((work / s, p50, p99) for p in passes
                           for s, work, p50, p99 in zip(p["chunk_s"], p["chunk_work"],
                                                        p["chunk_p50_us"], p["chunk_p99_us"])),
                          reverse=True))


def aggregate(a, binary, out_dir):
    """Runs perfbench processes until --seconds have passed; returns the
    result object over all their passes."""
    passes, rss = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < a.seconds:
        for line in run_binary(binary, a, PROCESS_SECONDS, out_dir):
            record = json.loads(line)
            if "pass" in record:
                passes.append(record["pass"])
            else:
                rss.append(record["process"]["peak_rss_mb"])
    first = passes[0]
    fingerprint = ("sim_cycles", "keys", "hits", "tickets", "digest")
    correct = all(p["failed"] == 0 for p in passes) and all(
        p[k] == first[k] for p in passes for k in fingerprint)
    fast = fastest_chunks(passes)
    if not fast:
        fail(f"{a.workload} timed no chunk")
    print(json.dumps({"detail": {"processes": len(rss), "passes": len(passes),
                                 "work_per_pass": first["work"],
                                 "latency_samples_per_pass": first["latency_samples"],
                                 "chunks": sum(len(p["chunk_s"]) for p in passes),
                                 "chunks_timed": len(fast),
                                 "work_per_s_whole_run": sum(p["work"] for p in passes) /
                                 sum(p["run_s"] for p in passes)}}))
    def metric(value, unit):
        return {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            "work_per_s": metric(statistics.mean(c[0] for c in fast), "1/s"),
            "sim_cycles": metric(first["sim_cycles"], "cycles"),
            "setup_s": metric(statistics.mean(fastest(sorted(p["setup_s"] for p in passes))),
                              "s"),
            "peak_rss_mb": metric(max(rss), "MB"),
            "latency_p50_us": metric(statistics.mean(c[1] for c in fast), "us"),
            "latency_p99_us": metric(statistics.mean(c[2] for c in fast), "us"),
        },
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    binary = os.path.join(build_dir, "perfbench")
    if a.trace == 1:
        lines = run_binary(binary, a, a.seconds, out_dir)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
    else:
        result = aggregate(a, binary, out_dir)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["end_to_end" if a.trace == 0 else "per_layer"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    if set(result["metrics"]) != declared:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    print(json.dumps(result))
    if not result["correct"] or result["failed"] != 0:
        fail(f"{a.workload} answered incorrectly")


if __name__ == "__main__":
    main()
