"""Figure 7: end-to-end throughput and latency.

Setup (Section 5.1): a 9-node cluster — one root, eight local nodes —
processing a tumbling count window with ``sum`` at 1% event-rate change;
the paper uses a 1M-event window.  Deco_async outperforms the
centralized approaches by ~10x in throughput; Central's latency is the
highest (~100x) because it aggregates non-incrementally at window end.
"""

from __future__ import annotations


from repro.api import RunSummary, compare
from repro.experiments.config import (END_TO_END_SCHEMES, common_kwargs,
                                      scaled)

N_LOCAL_NODES = 8
RATE_CHANGE = 0.01


def run_fig7a(scale: float = 1.0, seed: int = 0,
              jobs: int | None = None) -> dict[str, RunSummary]:
    """Fig. 7a: end-to-end sustainable throughput per approach."""
    s = scaled(base_window=80_000, base_windows=40, rate=50_000.0,
               scale=scale)
    return compare(list(END_TO_END_SCHEMES), n_nodes=N_LOCAL_NODES,
                   window_size=s.window_size, n_windows=s.n_windows,
                   rate_per_node=s.rate_per_node,
                   rate_change=RATE_CHANGE, mode="throughput",
                   seed=seed, jobs=jobs, **common_kwargs())


def run_fig7b(scale: float = 1.0, seed: int = 0,
              jobs: int | None = None) -> dict[str, RunSummary]:
    """Fig. 7b: end-to-end latency per approach."""
    s = scaled(base_window=80_000, base_windows=30, rate=50_000.0,
               scale=scale)
    return compare(list(END_TO_END_SCHEMES), n_nodes=N_LOCAL_NODES,
                   window_size=s.window_size, n_windows=s.n_windows,
                   rate_per_node=s.rate_per_node,
                   rate_change=RATE_CHANGE, mode="latency",
                   seed=seed, jobs=jobs, **common_kwargs())


HEADERS_7A = ["approach", "throughput ev/s", "vs scotty"]


def rows_fig7a(scale: float = 1.0) -> list[list]:
    """Table rows: approach, throughput (ev/s), speedup over Scotty."""
    summaries = run_fig7a(scale)
    scotty = summaries["scotty"].throughput
    return [[name, f"{s.throughput:,.0f}",
             f"{s.throughput / scotty:.2f}x"]
            for name, s in summaries.items()]


HEADERS_7B = ["approach", "latency ms", "vs deco_async"]


def rows_fig7b(scale: float = 1.0) -> list[list]:
    """Table rows: approach, mean latency (ms), vs Deco_async."""
    summaries = run_fig7b(scale)
    deco = summaries["deco_async"].latency_s
    return [[name, f"{s.latency_s * 1e3:.3f}",
             f"{s.latency_s / deco:.1f}x"]
            for name, s in summaries.items()]
