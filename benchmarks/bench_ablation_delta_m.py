"""Ablation: the delta-smoothing window ``m`` (Section 4.2.2).

"The parameter m is selected by the user and defines how aggressive
Deco_sync adapts to event rate changes.  When m is large, the delta is
steady and changes slowly.  In contrast, when m is small the delta is
easily affected by changes in the event rate."

Larger m keeps a memory of past jumps, widening the acceptance band and
trading network bytes (bigger buffers) against correction steps.
"""

from repro.api import run

M_VALUES = (1, 2, 4, 8, 16)
HEADERS = ["m", "corrections", "network bytes", "throughput ev/s"]


def sweep(scale):
    rows = []
    for m in M_VALUES:
        summary = run("deco_sync", n_nodes=2,
                      window_size=max(512, int(20_000 * scale)),
                      n_windows=max(10, int(50 * scale * 2)),
                      rate_per_node=50_000, rate_change=0.2,
                      epoch_seconds=0.05, delta_m=m, min_delta=2,
                      seed=9)
        rows.append([m, summary.result.correction_steps,
                     f"{summary.result.total_bytes:,}",
                     f"{summary.throughput:,.0f}"])
    return rows


def test_ablation_delta_m(benchmark, scale, record_table):
    rows = benchmark.pedantic(sweep, args=(scale,), rounds=1,
                              iterations=1)
    record_table("ablation_delta_m",
                 "Ablation: delta smoothing window m", HEADERS, rows)
    corrections = [r[1] for r in rows]
    # Smoothing over more windows reduces corrections under sustained
    # rate changes...
    assert corrections[-1] <= corrections[0]
    # ...while never breaking exactness (checked inside run()).
