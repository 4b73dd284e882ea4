"""Sweep-executor speedup: serial vs parallel wall-clock.

Runs a fig9-style (node count x scheme) sweep twice — ``jobs=1``
(in-process serial) and ``jobs>=2`` (process-pool fan-out) — records
both wall-clocks to ``benchmarks/results/sweep_speedup.txt`` so the
perf trajectory has a baseline to track, and asserts the two runs'
metrics are bit-identical (parallelism must never change results).

The measured speedup depends on the machine's core count; on a
multi-core box the parallel sweep should approach ``min(jobs, runs)``
times faster, on a single core the table documents the pool overhead.
"""
# This harness *measures host wall-clock* by design — it times the
# simulator from outside rather than running inside it.


import os
import time

from repro.experiments import fig9
from repro.sweep import resolve_jobs

HEADERS = ["executor", "wall-clock s", "speedup"]
NODE_COUNTS = (1, 2, 4, 8)


def test_sweep_speedup(benchmark, scale, record_table):
    jobs = max(2, resolve_jobs(None))
    # Warm the workload cache so both timings measure simulation work,
    # not first-touch workload generation.
    fig9.run_fig9(scale, "throughput", NODE_COUNTS, jobs=1)

    start = time.perf_counter()
    serial = fig9.run_fig9(scale, "throughput", NODE_COUNTS, jobs=1)
    serial_s = time.perf_counter() - start

    timing = {}

    def run_parallel():
        begin = time.perf_counter()
        out = fig9.run_fig9(scale, "throughput", NODE_COUNTS, jobs=jobs)
        timing["s"] = time.perf_counter() - begin
        return out

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    parallel_s = timing["s"]

    # Parallel execution must be invisible in the metrics.
    for n in NODE_COUNTS:
        for name in serial[n]:
            assert serial[n][name].throughput == \
                parallel[n][name].throughput
            assert serial[n][name].total_bytes == \
                parallel[n][name].total_bytes
            assert serial[n][name].correctness == \
                parallel[n][name].correctness

    rows = [
        ["serial (jobs=1)", f"{serial_s:.2f}", "1.00x"],
        [f"parallel (jobs={jobs}, {os.cpu_count()} cpus)",
         f"{parallel_s:.2f}", f"{serial_s / parallel_s:.2f}x"],
    ]
    record_table("sweep_speedup",
                 "Sweep executor: serial vs parallel wall-clock",
                 HEADERS, rows)
