"""Fig. 9: scalability with local node count.

Paper reference: Deco_async throughput grows linearly 1 -> 32 local
nodes (with a gradual slowdown) while the centralized approaches stay
flat; Deco_async's latency rises slowly, the others' stays constant.
"""

from repro.experiments import fig9

NODE_COUNTS = (1, 2, 4, 8, 16, 32)
LATENCY_NODE_COUNTS = (1, 2, 4, 8)


def test_fig9a_throughput_scaling(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig9.rows_fig9a, args=(scale, NODE_COUNTS),
                              rounds=1, iterations=1)
    record_table("fig9a", "Fig 9a: throughput vs local node count",
                 fig9.HEADERS_9A, rows)
    deco = [float(r[-1].replace(",", "")) for r in rows]
    scotty = [float(r[2].replace(",", "")) for r in rows]
    # Deco scales ~linearly through 8 nodes (allowing the slowdown).
    assert deco[3] > 4 * deco[0]  # 8 nodes vs 1 node
    assert deco[1] > 1.5 * deco[0]  # 2 nodes vs 1 node
    # The centralized baseline gains nothing from extra local nodes.
    assert max(scotty) < 1.5 * min(scotty)
    # Gradual slowdown: the per-node gain shrinks at 32 nodes.
    assert deco[-1] / 32 < deco[3] / 8


def test_fig9b_latency_scaling(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig9.rows_fig9b,
                              args=(scale, LATENCY_NODE_COUNTS),
                              rounds=1, iterations=1)
    record_table("fig9b", "Fig 9b: latency vs local node count",
                 fig9.HEADERS_9B, rows)
    central = [float(r[1]) for r in rows]
    deco = [float(r[-1]) for r in rows]
    # Centralized latency stays roughly constant per event volume;
    # Deco's stays below it everywhere.
    assert all(d < c for d, c in zip(deco, central, strict=True))
