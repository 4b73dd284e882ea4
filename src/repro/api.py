"""High-level public API of the Deco reproduction.

Typical use::

    from repro.api import run, compare

    summary = run("deco_async", n_nodes=8, window_size=100_000,
                  n_windows=20, rate_change=0.01)
    print(summary.throughput, summary.result.total_bytes,
          summary.correctness)

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
from repro.obs.tracer import RunTracer
from repro.sweep import SweepExecutor

#: All schemes the evaluation compares, in the paper's order.
ALL_SCHEMES = ("central", "scotty", "disco", "approx", "deco_mon",
               "deco_sync", "deco_async")


@dataclass
class RunSummary:
    """One scheme run with the metrics its :class:`RunResult` lacks.

    Everything the run itself recorded (scheme, bytes, correction
    steps, standing-query accounts) is read from :attr:`result`.
    """

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
    correctness: float = 0.0

    @classmethod
    def of(cls, config: RunConfig, result: RunResult,
           workload: Workload) -> RunSummary:
        """Summarize one finished run of ``config``."""
        summary = cls(
            mode="throughput" if config.saturated else "latency",
            result=result, workload=workload,
            correctness=_correctness(result, workload))
        if config.saturated:
            summary.throughput = sustainable_throughput(result)
        else:
            summary.latency_s = percentile_latency(
                result, workload, config.resolved_batch_size(), 50.0)
        return summary

    def __str__(self) -> str:
        parts = [f"{self.result.scheme}"]
        if self.throughput is not None:
            parts.append(f"throughput={self.throughput:,.0f} ev/s")
        if self.latency_s is not None:
            parts.append(f"latency={self.latency_s * 1e3:.3f} ms")
        parts.append(f"bytes={self.result.total_bytes:,}")
        parts.append(f"correctness={self.correctness:.4f}")
        parts.append(f"corrections={self.result.correction_steps}")
        return "  ".join(parts)


def make_config(scheme: str, *, mode: str = "throughput",
                **config: Any) -> RunConfig:
    """The :class:`RunConfig` of one scheme run: ``mode`` picks the
    load shape, every other field keeps its :class:`RunConfig` default
    unless given."""
    if mode not in ("throughput", "latency"):
        raise ConfigurationError(
            f"mode must be 'throughput' or 'latency', got {mode!r}")
    return RunConfig(scheme=scheme, saturated=(mode == "throughput"),
                     **config)


def run(scheme: str, *, mode: str = "throughput",
        workload: Workload | None = None,
        tracer: RunTracer | None = None,
        **config: Any) -> RunSummary:
    """Run one scheme on the simulator and summarize its metrics.

    Args:
        scheme: A registered scheme name (see :data:`ALL_SCHEMES`).
        mode: ``"throughput"`` (saturated) or ``"latency"`` (paced).
        workload: Reuse a pre-generated workload (for fair comparisons).
        tracer: A :class:`~repro.obs.tracer.RunTracer` to record the
            run into (see :mod:`repro.obs`); the metrics are unchanged.
        **config: :class:`RunConfig` fields (``n_nodes``,
            ``window_size``, ``n_windows``, ``rate_per_node``,
            ``rate_change``, ``aggregate``, ``seed``, profiles,
            ``delta_m``, ...); each one left out keeps its
            :class:`RunConfig` default.  Notably ``queries``: a tuple
            of standing-query specs (``"agg:length[:step]"``, e.g.
            ``("sum:1000", "avg:700:350")``) admitted on every local
            stream and served by the shared multi-query engine; the
            per-query accounts land on ``summary.result.queries``.  A
            single query is just the one-element tuple of the same
            path.
    """
    run_config = make_config(scheme, mode=mode, **config)
    result, used_workload = run_scheme(run_config, workload, tracer)
    return RunSummary.of(run_config, result, used_workload)


def compare(schemes: Sequence[str], *, jobs: int | None = None,
            **kwargs: Any) -> dict[str, RunSummary]:
    """Run several schemes over the *same* workload.

    Returns a dict keyed by scheme name, in input order.  The runs are
    independent simulations and fan out over ``jobs`` worker processes
    (see :mod:`repro.sweep`); ``jobs=1`` runs them serially in-process
    with bit-identical results.
    """
    return compare_grid(schemes, [{}], jobs=jobs, **kwargs)[0]


def compare_grid(schemes: Sequence[str],
                 points: Sequence[Mapping],
                 *, mode: str = "throughput",
                 jobs: int | None = None,
                 **common: Any) -> list[dict[str, RunSummary]]:
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
    configs = [make_config(scheme, **{"mode": mode, **common, **point})
               for point in points for scheme in schemes]
    runs = SweepExecutor(jobs=jobs).run_with_workloads(configs)
    summaries = iter([RunSummary.of(config, result, workload)
                      for config, (result, workload)
                      in zip(configs, runs, strict=True)])
    return [{scheme: next(summaries) for scheme in schemes}
            for _point in points]
