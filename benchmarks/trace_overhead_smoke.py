"""Trace-overhead smoke check: tracing must stay within its budget.

Runs the same tier-1-sized workload traced (``RunTracer``) and untraced
(``NULL_TRACER``, the default) in interleaved pairs and compares the
best observed wall-clock of each variant.  Interleaving plus best-of
makes the ratio robust to the frequency drift and scheduler noise of
shared CI runners; the best time of each variant approximates its
noise-free cost.  Fails (exit 1) when the traced best exceeds
``MAX_RATIO`` times the untraced best.

The guarantee being enforced is the design contract of ``repro.obs``:
every hook is guarded by ``if tracer.enabled:`` so the untraced hot
path pays one attribute read and a falsy branch per *message*, never
per kernel event, and the traced path records a few thousand events per
run — cheap enough that tracing a real experiment is routine rather
than a special slow mode.

Run directly (it is not a pytest file on purpose — CI calls it as a
step with a hard exit code)::

    PYTHONPATH=src python benchmarks/trace_overhead_smoke.py
"""
# This harness *measures host wall-clock* by design — it times the
# simulator from outside rather than running inside it.


import sys
import time

from repro.core.runner import RunConfig, run_scheme
from repro.obs import RunTracer

MAX_RATIO = 1.10
PAIRS = 7

CONFIG = RunConfig(scheme="deco_async", n_nodes=2,
                   window_size=1_200_000, n_windows=8,
                   rate_per_node=100_000.0, rate_change=0.05,
                   delta_m=4, min_delta=2, seed=3)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    # Warm up: workload generation, imports, and allocator pools are
    # shared costs that must not be attributed to either variant.
    _, workload = run_scheme(CONFIG)
    run_scheme(CONFIG, workload, RunTracer())

    untraced = float("inf")
    traced = float("inf")
    for _ in range(PAIRS):
        untraced = min(untraced,
                       timed(lambda: run_scheme(CONFIG, workload)))
        traced = min(traced, timed(
            lambda: run_scheme(CONFIG, workload, RunTracer())))

    ratio = traced / untraced
    print(f"untraced best-of-{PAIRS}: {untraced * 1e3:8.2f} ms")
    print(f"traced   best-of-{PAIRS}: {traced * 1e3:8.2f} ms")
    print(f"ratio: {ratio:.3f}x (limit {MAX_RATIO:.2f}x)")
    if ratio > MAX_RATIO:
        print("FAIL: tracing overhead exceeds the budget",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
