"""High-level public API of the Deco reproduction.

Typical use::

    from repro.api import run, compare

    summary = run("deco_async", n_nodes=8, window_size=100_000,
                  n_windows=20, rate_change=0.01)
    print(summary.throughput, summary.total_bytes, summary.correctness)

    results = compare(["central", "scotty", "deco_async"], n_nodes=8,
                      window_size=100_000, n_windows=20)

``mode="throughput"`` (default) runs saturated — input always available,
backpressured at each node — and reports sustainable throughput.
``mode="latency"`` paces input at event time and reports steady-state
window latency.

Sweeps parallelize: :func:`compare` and :func:`compare_grid` fan their
independent runs out over worker processes via
:class:`repro.sweep.SweepExecutor` (``jobs=`` argument, ``REPRO_JOBS``
environment variable, default ``os.cpu_count()``; ``jobs=1`` is the
in-process serial path with bit-identical results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.records import RunResult
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import Workload
from repro.errors import ConfigurationError
from repro.metrics.correctness import correctness as _correctness
from repro.metrics.latency import percentile_latency
from repro.metrics.throughput import sustainable_throughput
from repro.obs.tracer import RunTracer, TraceFlag, resolve_tracer
from repro.sweep import SweepExecutor

#: All schemes the evaluation compares, in the paper's order.
ALL_SCHEMES = ("central", "scotty", "disco", "approx", "deco_mon",
               "deco_sync", "deco_async")


@dataclass
class RunSummary:
    """One scheme run with its headline metrics."""

    scheme: str
    mode: str
    result: RunResult = field(repr=False)
    workload: Workload = field(repr=False)
    #: Sustainable throughput in events/s (saturated runs).
    throughput: float | None = None
    #: Median steady-state window latency in seconds (paced runs).
    #: The median matches the paper's per-event processing-time metric
    #: more closely than the mean: a speculative window that waits for
    #: the next front buffer delays one result, not the typical event.
    latency_s: float | None = None
    total_bytes: int = 0
    correctness: float = 0.0
    correction_steps: int = 0
    #: The run's :class:`~repro.obs.tracer.RunTracer` when tracing was
    #: requested (``trace=True``); ``None`` otherwise.
    trace: RunTracer | None = field(default=None, repr=False)
    #: Per-standing-query accounts (qid -> JSON account with result
    #: fingerprint and cost counters) when the run carried ``queries``;
    #: empty otherwise.  See :mod:`repro.core.multiquery`.
    queries: dict[str, dict[str, Any]] = field(default_factory=dict,
                                               repr=False)

    def __str__(self) -> str:
        parts = [f"{self.scheme}"]
        if self.throughput is not None:
            parts.append(f"throughput={self.throughput:,.0f} ev/s")
        if self.latency_s is not None:
            parts.append(f"latency={self.latency_s * 1e3:.3f} ms")
        parts.append(f"bytes={self.total_bytes:,}")
        parts.append(f"correctness={self.correctness:.4f}")
        parts.append(f"corrections={self.correction_steps}")
        return "  ".join(parts)


def _make_config(scheme: str, *, mode: str = "throughput", seed: int = 0,
                 **config_kwargs) -> RunConfig:
    """Build the :class:`RunConfig` of one scheme run (validates mode)."""
    if mode not in ("throughput", "latency"):
        raise ConfigurationError(
            f"mode must be 'throughput' or 'latency', got {mode!r}")
    return RunConfig(scheme=scheme, seed=seed,
                     saturated=(mode == "throughput"), **config_kwargs)


def _summarize(config: RunConfig, mode: str, result: RunResult,
               workload: Workload) -> RunSummary:
    """Package one finished run into a :class:`RunSummary`."""
    summary = RunSummary(
        scheme=config.scheme, mode=mode, result=result, workload=workload,
        total_bytes=result.total_bytes,
        correctness=_correctness(result, workload),
        correction_steps=result.correction_steps,
        queries=dict(result.queries))
    if mode == "throughput":
        summary.throughput = sustainable_throughput(result)
    else:
        summary.latency_s = percentile_latency(
            result, workload, config.resolved_batch_size(), 50.0)
    return summary


def run(scheme: str, *, n_nodes: int = 2, window_size: int = 10_000,
        n_windows: int = 10, rate_per_node: float = 100_000.0,
        rate_change: float = 0.01, aggregate: str = "sum",
        mode: str = "throughput", seed: int = 0,
        workload: Workload | None = None,
        trace: TraceFlag = False,
        **config_kwargs) -> RunSummary:
    """Run one scheme and summarize its metrics.

    Args:
        scheme: A registered scheme name (see :data:`ALL_SCHEMES`).
        n_nodes: Local node count.
        window_size: Global count window size ``l_global``.
        n_windows: Global windows to process.
        rate_per_node: Mean event rate per local node (events/s).
        rate_change: The paper's rate-change parameter (0.01 = 1%).
        aggregate: Aggregation function name.
        mode: ``"throughput"`` (saturated) or ``"latency"`` (paced).
        seed: Workload RNG seed.
        workload: Reuse a pre-generated workload (for fair comparisons).
        trace: Record a structured trace (see :mod:`repro.obs`); the
            tracer lands on :attr:`RunSummary.trace`, the metrics are
            unchanged.  Also accepts an existing
            :class:`~repro.obs.tracer.RunTracer` to collect into.
        **config_kwargs: Extra :class:`RunConfig` fields (profiles,
            bandwidth, delta_m, ...).  Notably ``queries``: a tuple of
            standing-query specs (``"agg:length[:step]"``, e.g.
            ``("sum:1000", "avg:700:350")``) admitted on every local
            stream and served by the shared multi-query engine; the
            per-query accounts land on :attr:`RunSummary.queries`.  A
            single query is just the one-element tuple of the same
            path.
    """
    config = _make_config(
        scheme, mode=mode, seed=seed, n_nodes=n_nodes,
        window_size=window_size, n_windows=n_windows,
        rate_per_node=rate_per_node, rate_change=rate_change,
        aggregate=aggregate, **config_kwargs)
    tracer = resolve_tracer(trace)
    result, used_workload = run_scheme(config, workload, tracer)
    summary = _summarize(config, mode, result, used_workload)
    summary.trace = tracer
    return summary


def compare(schemes: Sequence[str], *, seed: int = 0,
            jobs: int | None = None,
            **kwargs) -> dict[str, RunSummary]:
    """Run several schemes over the *same* workload.

    Returns a dict keyed by scheme name, in input order.  The runs are
    independent simulations and fan out over ``jobs`` worker processes
    (see :mod:`repro.sweep`); ``jobs=1`` runs them serially in-process
    with bit-identical results.
    """
    if not schemes:
        raise ConfigurationError("no schemes given")
    return compare_grid(schemes, [{}], seed=seed, jobs=jobs, **kwargs)[0]


def compare_grid(schemes: Sequence[str],
                 points: Sequence[Mapping],
                 *, seed: int = 0, mode: str = "throughput",
                 jobs: int | None = None,
                 **common) -> list[dict[str, RunSummary]]:
    """Run a sweep: every scheme at every grid point, in parallel.

    ``points`` is a sequence of per-point :class:`RunConfig` overrides
    (e.g. ``[{"n_nodes": 2}, {"n_nodes": 4}]``) merged over the shared
    ``common`` kwargs.  All ``len(schemes) * len(points)`` runs are
    independent and execute on a single :class:`SweepExecutor`, so the
    whole grid — not just one point — parallelizes, and each distinct
    workload is generated once and shared across the scheme runs that
    consume it.

    Returns one ``{scheme: RunSummary}`` dict per point, in point order.
    """
    if not schemes:
        raise ConfigurationError("no schemes given")
    points = [dict(p) for p in points]
    if not points:
        return []
    configs: list[RunConfig] = []
    modes: list[str] = []
    for point in points:
        merged = {**common, **point}
        point_mode = merged.pop("mode", mode)
        for scheme in schemes:
            configs.append(_make_config(scheme, mode=point_mode,
                                        seed=seed, **merged))
            modes.append(point_mode)
    pairs = SweepExecutor(jobs=jobs).run_with_workloads(configs)
    out: list[dict[str, RunSummary]] = []
    it = zip(configs, modes, pairs, strict=True)
    for _point in points:
        summaries: dict[str, RunSummary] = {}
        for scheme in schemes:
            config, run_mode, (result, workload) = next(it)
            summaries[scheme] = _summarize(config, run_mode, result,
                                           workload)
        out.append(summaries)
    return out
