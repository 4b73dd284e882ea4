"""Figure 11: performance on IoT-class hardware (Raspberry Pi cluster).

Setup (Section 5.3): Raspberry Pi 4B local nodes (1 GbE, 4-core A72)
with one Intel root node; tumbling window, sum, 1% rate change.  The
centralized baselines saturate the Pis' 1 Gbit/s uplinks (~49 MB/s
observed in the paper); Deco_async keeps the highest throughput and the
lowest latency and still scales linearly with added Pis.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.api import RunSummary, compare, compare_grid
from repro.experiments.config import (END_TO_END_SCHEMES, common_kwargs,
                                      scaled)
from repro.runtime import ETHERNET_1G, INTEL_XEON, RASPBERRY_PI_4B

RATE_CHANGE = 0.01
N_LOCAL_NODES = 4
PI_COUNTS = (1, 2, 4, 8)


def _rpi_kwargs(scale: float) -> dict:
    s = scaled(base_window=40_000, base_windows=30, rate=20_000.0,
               scale=scale)
    kwargs = common_kwargs()
    kwargs.update(window_size=s.window_size, n_windows=s.n_windows,
                  rate_per_node=s.rate_per_node,
                  rate_change=RATE_CHANGE,
                  local_profile=RASPBERRY_PI_4B,
                  root_profile=INTEL_XEON, bandwidth=ETHERNET_1G)
    return kwargs


def run_fig11_throughput(scale: float = 1.0, seed: int = 0,
                         jobs: int | None = None
                         ) -> dict[str, RunSummary]:
    """Fig. 11a: throughput on the Pi cluster."""
    return compare(list(END_TO_END_SCHEMES), n_nodes=N_LOCAL_NODES,
                   mode="throughput", seed=seed, jobs=jobs,
                   **_rpi_kwargs(scale))


def run_fig11_latency(scale: float = 1.0, seed: int = 0,
                      jobs: int | None = None
                      ) -> dict[str, RunSummary]:
    """Fig. 11b/11c: network bandwidth and latency on the Pi cluster."""
    return compare(list(END_TO_END_SCHEMES), n_nodes=N_LOCAL_NODES,
                   mode="latency", seed=seed, jobs=jobs,
                   **_rpi_kwargs(scale))


def run_fig11_scalability(scale: float = 1.0, seed: int = 0,
                          counts: Sequence[int] = PI_COUNTS,
                          jobs: int | None = None
                          ) -> dict[int, dict[str, RunSummary]]:
    """Fig. 11d: throughput as Raspberry Pis are added."""
    kwargs = _rpi_kwargs(scale)
    base_window = kwargs.pop("window_size")
    points = [dict(n_nodes=n, window_size=base_window * n)
              for n in counts]
    grids = compare_grid(list(END_TO_END_SCHEMES), points,
                         mode="throughput", seed=seed, jobs=jobs,
                         **kwargs)
    return dict(zip(counts, grids, strict=True))


HEADERS_11A = ["approach", "throughput ev/s"]


def rows_fig11a(scale: float = 1.0) -> list[list]:
    """Rows: approach, Pi-cluster throughput (events/s)."""
    summaries = run_fig11_throughput(scale)
    return [[name, f"{s.throughput:,.0f}"]
            for name, s in summaries.items()]


HEADERS_11BC = ["approach", "bandwidth MB/s", "latency ms"]


def rows_fig11bc(scale: float = 1.0) -> list[list]:
    """Rows: approach, saturated bandwidth (MB/s), latency (ms).

    Bandwidth comes from the saturated run — the paper's point is that
    the centralized approaches drive the Pis' 1 GbE links to their
    sustained limit (~49 MB/s) — while latency comes from the paced run.
    """
    throughput = run_fig11_throughput(scale)
    latency = run_fig11_latency(scale)
    rows = []
    for name in throughput:
        bandwidth = throughput[name].result.root_ingress_bytes_per_s / 1e6
        rows.append([name, f"{bandwidth:.2f}",
                     f"{latency[name].latency_s * 1e3:.3f}"])
    return rows


HEADERS_11D = ["raspberry pis"] + [f"{s} ev/s" for s in END_TO_END_SCHEMES]


def rows_fig11d(scale: float = 1.0) -> list[list]:
    """Rows: Pi count, throughput per approach (events/s)."""
    data = run_fig11_scalability(scale)
    return [[n] + [f"{data[n][s].throughput:,.0f}"
                   for s in END_TO_END_SCHEMES] for n in data]
