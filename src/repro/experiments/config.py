"""Shared experiment configuration.

The paper's testbed processes up to 100M events per node per run; a
Python reproduction scales counts down while keeping every *ratio* that
the figures plot (nodes, window sizes, rate-change values).  Every
experiment accepts a ``scale`` factor: 1.0 is the default benchmark
scale, smaller values run the same code in milliseconds for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Schemes in the paper's comparison order.
END_TO_END_SCHEMES = ("central", "scotty", "disco", "deco_async")
ADAPTIVITY_SCHEMES = ("approx", "deco_mon", "deco_sync", "deco_async")

#: Calibrated prediction parameters used by every experiment: delta
#: smoothing over m = 4 windows and a 4-event delta floor that covers
#: the +-1 interleave quantization jitter of exact count boundaries
#: (see DESIGN.md).
DELTA_M = 4
MIN_DELTA = 4


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizes for one experiment, derived from ``scale``."""

    window_size: int
    n_windows: int
    rate_per_node: float


def scaled(base_window: int, base_windows: int, rate: float,
           scale: float) -> ExperimentScale:
    """Scale a base configuration; windows never drop below 8."""
    window = max(512, int(base_window * scale))
    return ExperimentScale(window_size=window,
                           n_windows=max(8, int(base_windows * min(
                               1.0, scale * 2))),
                           rate_per_node=rate)


def common_kwargs() -> dict:
    """Query/prediction parameters shared by all experiments."""
    return {"delta_m": DELTA_M, "min_delta": MIN_DELTA}
