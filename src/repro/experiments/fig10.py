"""Figure 10: adaptivity to event-rate changes and window sizes.

Setup (Section 5.2): a three-node cluster — two local nodes and a root —
computing a sum over a tumbling count window.

* 10a/10b: throughput and network cost as the rate-change parameter
  grows 0.1% -> 100%.  Approx is the (incorrect) optimum; Deco_async
  tracks it at small changes; Deco_mon/Deco_sync pay blocking.
* 10c: correction steps per 100 windows.  Async corrects more than sync
  (speculation); both grow with the change rate.
* 10d: correctness vs Central ground truth.  All Deco schemes stay at
  100%; Approx degrades.
* 10e: throughput vs window size at 1% change — Deco pays off at large
  windows.
* 10f: correctness vs window size at 50% change — Deco stays at 100%.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.api import RunSummary, compare_grid
from repro.experiments.config import (ADAPTIVITY_SCHEMES, common_kwargs,
                                      scaled)

N_LOCAL_NODES = 2
RATE_CHANGES = (0.001, 0.01, 0.05, 0.2, 0.5, 1.0)
WINDOW_SIZES = (2_000, 5_000, 10_000, 20_000, 50_000, 100_000)

#: Rate epochs much shorter than a window, so every window integrates
#: fresh rate draws (the paper's rates change "mildly but frequently").
EPOCH_SECONDS = 0.05


def _common(scale: float) -> dict:
    s = scaled(base_window=20_000, base_windows=50, rate=50_000.0,
               scale=scale)
    kwargs = common_kwargs()
    kwargs.update(n_nodes=N_LOCAL_NODES, window_size=s.window_size,
                  n_windows=s.n_windows, rate_per_node=s.rate_per_node,
                  epoch_seconds=EPOCH_SECONDS, margin=2.0)
    return kwargs


def run_rate_change_sweep(scale: float = 1.0, seed: int = 0,
                          changes: Sequence[float] = RATE_CHANGES,
                          jobs: int | None = None
                          ) -> dict[float, dict[str, RunSummary]]:
    """Figs. 10a-10d: one saturated run per scheme per change value.

    The whole (change x scheme) grid fans out over one sweep executor.
    """
    points = [dict(rate_change=change) for change in changes]
    grids = compare_grid(list(ADAPTIVITY_SCHEMES), points,
                         mode="throughput", seed=seed, jobs=jobs,
                         **_common(scale))
    return dict(zip(changes, grids, strict=True))


def run_window_size_sweep(scale: float = 1.0, rate_change: float = 0.01,
                          seed: int = 0,
                          sizes: Sequence[int] = WINDOW_SIZES,
                          jobs: int | None = None
                          ) -> dict[int, dict[str, RunSummary]]:
    """Figs. 10e-10f: sweep the global window size."""
    points = [dict(window_size=max(512, int(size * scale)))
              for size in sizes]
    grids = compare_grid(list(ADAPTIVITY_SCHEMES), points,
                         rate_change=rate_change, mode="throughput",
                         seed=seed, jobs=jobs, **_common(scale))
    return dict(zip(sizes, grids, strict=True))


def _per100(summary: RunSummary) -> float:
    measurable = max(1, summary.result.n_windows - 3)
    return 100.0 * summary.result.correction_steps / measurable


HEADERS_RATE = ["rate change"] + list(ADAPTIVITY_SCHEMES)


def rows_fig10a(data) -> list[list]:
    """Rows: change, throughput per scheme (events/s)."""
    return [[f"{change * 100:g}%"]
            + [f"{data[change][s].throughput:,.0f}"
               for s in ADAPTIVITY_SCHEMES] for change in data]


def rows_fig10b(data) -> list[list]:
    """Rows: change, network bytes per scheme."""
    return [[f"{change * 100:g}%"]
            + [f"{data[change][s].result.total_bytes:,}"
               for s in ADAPTIVITY_SCHEMES] for change in data]


HEADERS_10C = ["rate change", "deco_sync corr/100w",
               "deco_async corr/100w"]


def rows_fig10c(data) -> list[list]:
    """Rows: change, correction steps per 100 windows (sync/async)."""
    return [[f"{change * 100:g}%",
             f"{_per100(data[change]['deco_sync']):.0f}",
             f"{_per100(data[change]['deco_async']):.0f}"]
            for change in data]


def rows_fig10d(data) -> list[list]:
    """Rows: change, correctness per scheme (fraction)."""
    return [[f"{change * 100:g}%"]
            + [f"{data[change][s].correctness:.4f}"
               for s in ADAPTIVITY_SCHEMES] for change in data]


HEADERS_WINDOW = ["window size"] + list(ADAPTIVITY_SCHEMES)


def rows_fig10e(data) -> list[list]:
    """Rows: window size, throughput per scheme (events/s)."""
    return [[size] + [f"{data[size][s].throughput:,.0f}"
                      for s in ADAPTIVITY_SCHEMES] for size in data]


def rows_fig10f(data) -> list[list]:
    """Rows: window size, correctness per scheme (fraction)."""
    return [[size] + [f"{data[size][s].correctness:.4f}"
                      for s in ADAPTIVITY_SCHEMES] for size in data]
