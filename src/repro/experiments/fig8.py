"""Figure 8: network utilization.

Setup (Section 5.1): every local node receives a fixed number of events
at 1% rate change; all approaches compute a sum over a tumbling count
window.  Fig. 8a uses a 2-node cluster (one local, one root); Fig. 8b
grows the topology to 8 local nodes.  Deco_async avoids shipping raw
events and saves up to 99% of the network; Disco's string encoding costs
~3x Central/Scotty; total bytes grow linearly with node count.
"""

from __future__ import annotations


from repro.api import RunSummary, compare, compare_grid
from repro.experiments.config import common_kwargs, scaled
from repro.metrics.network import network_saving

SCHEMES = ("central", "scotty", "disco", "deco_async")
RATE_CHANGE = 0.01
NODE_COUNTS = (1, 2, 4, 8)


def run_fig8a(scale: float = 1.0, seed: int = 0,
              jobs: int | None = None) -> dict[str, RunSummary]:
    """Fig. 8a: bytes moved in a 1-local-node cluster."""
    s = scaled(base_window=40_000, base_windows=40, rate=50_000.0,
               scale=scale)
    # Network accounting is cleanest in paced mode: no speculative
    # over-forwarding races against the control plane.
    return compare(list(SCHEMES), n_nodes=1, window_size=s.window_size,
                   n_windows=s.n_windows, rate_per_node=s.rate_per_node,
                   rate_change=RATE_CHANGE, mode="latency", seed=seed,
                   jobs=jobs, **common_kwargs())


def run_fig8b(scale: float = 1.0, seed: int = 0,
              jobs: int | None = None
              ) -> dict[int, dict[str, RunSummary]]:
    """Fig. 8b: bytes moved as local nodes grow 1 -> 8.

    The per-node event count stays fixed (the paper fixes 100M events
    per local node), so total traffic grows with the node count.  The
    whole (node count x scheme) grid fans out over one sweep executor.
    """
    s = scaled(base_window=40_000, base_windows=30, rate=50_000.0,
               scale=scale)
    points = [dict(n_nodes=n,
                   window_size=s.window_size * n)  # fixed events/node
              for n in NODE_COUNTS]
    grids = compare_grid(
        list(SCHEMES), points, n_windows=s.n_windows,
        rate_per_node=s.rate_per_node, rate_change=RATE_CHANGE,
        mode="latency", seed=seed, jobs=jobs, **common_kwargs())
    return dict(zip(NODE_COUNTS, grids, strict=True))


HEADERS_8A = ["approach", "total bytes", "saving vs central"]


def rows_fig8a(scale: float = 1.0) -> list[list]:
    """Rows: approach, total bytes, saving vs Central."""
    summaries = run_fig8a(scale)
    central = summaries["central"]
    return [[name, f"{s.result.total_bytes:,}",
             f"{network_saving(s.result, central.result) * 100:.1f}%"]
            for name, s in summaries.items()]


HEADERS_8B = ["local nodes"] + [f"{s} bytes" for s in SCHEMES]


def rows_fig8b(scale: float = 1.0) -> list[list]:
    """Rows: node count then bytes per approach."""
    data = run_fig8b(scale)
    rows = []
    for n, summaries in data.items():
        rows.append([n] + [f"{summaries[s].result.total_bytes:,}"
                           for s in SCHEMES])
    return rows
