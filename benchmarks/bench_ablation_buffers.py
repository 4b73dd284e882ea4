"""Ablation: buffer sizing (the delta floor) and placement.

Two questions DESIGN.md calls out:

* How large must the buffers be?  The ``min_delta`` floor sets a lower
  bound on the raw-event buffers; tiny floors leave no room for the
  integer jitter of exact count boundaries and correction rates
  explode, while large floors trade network bytes for stability.
* Where should the slack live?  Deco_sync puts all of it *after* the
  slice (2-Delta trailing buffer, Eq. 4); Deco_async splits it around
  the slice (front + end, Eq. 10) to survive speculative starts.  Under
  identical workloads the split placement costs more corrections —
  speculation drift consumes the band from both sides.
"""

from repro.api import run

MIN_DELTAS = (0, 1, 2, 4, 8, 16)
HEADERS_FLOOR = ["min_delta", "corrections", "network bytes"]
HEADERS_PLACE = ["scheme (placement)", "corrections",
                 "network bytes"]


def sweep_floor(scale):
    # The floor matters in the near-stable regime, where window-size
    # jitter is a couple of events of interleave quantization: with no
    # floor, the raw delta collapses to ~0 and every jitter event is a
    # "prediction error" (the Section 4.2.2 delta-to-zero problem).
    rows = []
    for floor in MIN_DELTAS:
        summary = run("deco_sync", n_nodes=2,
                      window_size=max(512, int(4_000 * scale)),
                      n_windows=max(10, int(50 * scale * 2)),
                      rate_per_node=10_000, rate_change=0.002,
                      epoch_seconds=1.0, delta_m=4, min_delta=floor,
                      seed=9)
        rows.append([floor, summary.result.correction_steps,
                     f"{summary.result.total_bytes:,}"])
    return rows


def sweep_placement(scale):
    rows = []
    for scheme, label in (("deco_sync", "deco_sync (trailing 2-Delta)"),
                          ("deco_async", "deco_async (front/end split)")):
        summary = run(scheme, n_nodes=2,
                      window_size=max(512, int(20_000 * scale)),
                      n_windows=max(10, int(50 * scale * 2)),
                      rate_per_node=50_000, rate_change=0.05,
                      epoch_seconds=0.05, delta_m=4, min_delta=4,
                      seed=9)
        rows.append([label, summary.result.correction_steps,
                     f"{summary.result.total_bytes:,}"])
    return rows


def test_ablation_buffer_floor(benchmark, scale, record_table):
    rows = benchmark.pedantic(sweep_floor, args=(scale,), rounds=1,
                              iterations=1)
    record_table("ablation_buffer_floor",
                 "Ablation: buffer floor (min_delta)", HEADERS_FLOOR,
                 rows)
    corrections = [r[1] for r in rows]
    # A zero floor is pathological; a modest floor suppresses the
    # quantization corrections.
    assert corrections[0] > corrections[-1]


def test_ablation_buffer_placement(benchmark, scale, record_table):
    rows = benchmark.pedantic(sweep_placement, args=(scale,), rounds=1,
                              iterations=1)
    record_table("ablation_buffer_placement",
                 "Ablation: buffer placement (sync vs async)",
                 HEADERS_PLACE, rows)
    sync_corr, async_corr = rows[0][1], rows[1][1]
    # Speculation's split buffers correct at least as often as the
    # root-anchored trailing buffer.
    assert async_corr >= sync_corr
