"""Section 5.1 microbenchmark: Deco_mon vs Deco_monlocal latency.

The root-less Deco_monlocal moves the verification step onto the local
nodes, which must exchange event rates with every peer before sizing
their windows.  With 32 local nodes the paper measures 10.24 ms for
Deco_monlocal vs 0.526 ms for Deco_mon — the O(n^2) peer synchronization
dominates.
"""

from __future__ import annotations


from repro.api import RunSummary, compare
from repro.experiments.config import common_kwargs, scaled

N_LOCAL_NODES = 32


def run_micro(scale: float = 1.0, n_nodes: int = N_LOCAL_NODES,
              seed: int = 0,
              jobs: int | None = None) -> dict[str, RunSummary]:
    """Deco_mon vs Deco_monlocal on a 32-local cluster.

    The paper reports per-window coordination latency under load; we
    run saturated and derive the steady per-window cycle time from the
    sustainable throughput (cycle = window / throughput), which is
    exactly the coordination cost the microbenchmark isolates.
    """
    s = scaled(base_window=32_000, base_windows=16, rate=20_000.0,
               scale=scale)
    return compare(["deco_mon", "deco_monlocal"], n_nodes=n_nodes,
                   window_size=s.window_size, n_windows=s.n_windows,
                   rate_per_node=s.rate_per_node, rate_change=0.01,
                   mode="throughput", seed=seed, jobs=jobs,
                   **common_kwargs())


def cycle_ms(summary: RunSummary) -> float:
    """Steady-state per-window cycle time in milliseconds."""
    return summary.result.window_size / summary.throughput * 1e3


HEADERS_MICRO = ["approach", "window cycle ms", "vs deco_mon"]


def rows_micro(scale: float = 1.0,
               n_nodes: int = N_LOCAL_NODES) -> list[list]:
    """Rows: approach, window cycle (ms), slowdown vs Deco_mon."""
    summaries = run_micro(scale, n_nodes)
    mon = cycle_ms(summaries["deco_mon"])
    return [[name, f"{cycle_ms(s):.3f}",
             f"{cycle_ms(s) / mon:.1f}x"]
            for name, s in summaries.items()]
