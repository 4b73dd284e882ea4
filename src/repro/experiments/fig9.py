"""Figure 9: scalability with local node count.

Setup (Section 5.1): starting from one root + one local node, local
nodes grow to 32; the global window size grows with the node count "to
eliminate the effect of small size windows".  Deco_async's throughput
scales linearly (it offloads aggregation to the added nodes) with a
gradual slowdown; the centralized approaches stay flat.  Latency:
Deco_async grows slowly with node count, the others are constant.
"""

from __future__ import annotations


from repro.api import RunSummary, compare_grid
from repro.experiments.config import (END_TO_END_SCHEMES, common_kwargs,
                                      scaled)

RATE_CHANGE = 0.01
NODE_COUNTS = (1, 2, 4, 8, 16, 32)


def run_fig9(scale: float = 1.0, mode: str = "throughput",
             node_counts=NODE_COUNTS, seed: int = 0,
             jobs: int | None = None
             ) -> dict[int, dict[str, RunSummary]]:
    """Fig. 9a (throughput) / 9b (latency) sweeps over node count.

    All (node count x scheme) runs are independent and fan out over one
    sweep executor (``jobs`` workers, see :mod:`repro.sweep`).
    """
    s = scaled(base_window=10_000, base_windows=24, rate=50_000.0,
               scale=scale)
    points = [dict(n_nodes=n,
                   window_size=s.window_size * n)  # grows with nodes
              for n in node_counts]
    grids = compare_grid(
        list(END_TO_END_SCHEMES), points, n_windows=s.n_windows,
        rate_per_node=s.rate_per_node, rate_change=RATE_CHANGE,
        mode=mode, seed=seed, jobs=jobs, **common_kwargs())
    return dict(zip(node_counts, grids, strict=True))


HEADERS_9A = ["local nodes"] + [f"{s} ev/s" for s in END_TO_END_SCHEMES]


def rows_fig9a(scale: float = 1.0, node_counts=NODE_COUNTS) -> list[list]:
    """Rows: node count, throughput per approach (events/s)."""
    data = run_fig9(scale, "throughput", node_counts)
    return [[n] + [f"{data[n][s].throughput:,.0f}"
                   for s in END_TO_END_SCHEMES]
            for n in data]


HEADERS_9B = ["local nodes"] + [f"{s} ms" for s in END_TO_END_SCHEMES]


def rows_fig9b(scale: float = 1.0, node_counts=NODE_COUNTS) -> list[list]:
    """Rows: node count, mean latency per approach (ms)."""
    data = run_fig9(scale, "latency", node_counts)
    return [[n] + [f"{data[n][s].latency_s * 1e3:.3f}"
                   for s in END_TO_END_SCHEMES]
            for n in data]
