"""Helpers for the in-process simulator workloads: a run staged
through ``repro.runtime.driver`` with a span per stage, and the exact
per-layer counts a :class:`RunResult` carries."""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.records import RunResult
from repro.core.runner import RunConfig
from repro.core.workload import Workload
from repro.errors import SimulationError
from repro.obs.tracer import RunTracer
from repro.runtime import driver

from e2ebench.spans import SpanRecorder

STAGES = ("build", "inject", "simulate", "collect")


def stage_only(config: RunConfig, workload: Workload) -> None:
    """``build_run`` + ``inject_sources`` without running."""
    topo, ctx = driver.build_run(config, workload)
    driver.inject_sources(topo, ctx, config.resolved_batch_size(),
                          config.saturated, config.sources_per_node)


def staged_run(config: RunConfig, workload: Workload,
               spans: SpanRecorder, tracer: RunTracer | None
               ) -> tuple[RunResult, int]:
    """What ``run_scheme_simulated`` does, one span per stage; returns
    the result and the kernel's executed-event count."""
    with spans.span("runtime.driver.build", scheme=config.scheme):
        topo, ctx = driver.build_run(config, workload, tracer)
    with spans.span("runtime.driver.inject", scheme=config.scheme):
        driver.inject_sources(topo, ctx, config.resolved_batch_size(),
                              config.saturated, config.sources_per_node)
    with spans.span("runtime.driver.simulate", scheme=config.scheme):
        topo.start()
        topo.sim.run(until=driver.simulation_cap_s(ctx))
    with spans.span("runtime.driver.collect", scheme=config.scheme):
        result = driver.collect(topo, ctx)
    if result.n_windows < ctx.n_windows:
        raise SimulationError(
            f"scheme {config.scheme!r} stalled: emitted "
            f"{result.n_windows}/{ctx.n_windows} windows")
    return result, topo.sim.events_executed


def stage_counts(spans: SpanRecorder) -> dict[str, float]:
    return {f"runtime.driver.{stage}_s":
            spans.total(f"runtime.driver.{stage}") for stage in STAGES}


def result_counts(results: Iterable[RunResult]) -> dict[str, float]:
    """Exact counts at the scheme / fabric boundary.  Any change to
    them is a behaviour change, not a speed-up."""
    results = list(results)
    deco = [r for r in results if r.scheme.startswith("deco")]
    deco_windows = sum(r.n_windows for r in deco)
    errors = sum(r.prediction_errors for r in deco)
    messages = sum(r.messages for r in results)
    total_bytes = sum(r.total_bytes for r in results)
    return {
        "core.messages": messages,
        "core.correction_steps": sum(r.correction_steps
                                     for r in results),
        "core.recomputed_events": sum(r.recomputed_events
                                      for r in results),
        "core.prediction_hit_ratio":
            1.0 - errors / deco_windows if deco_windows else 0.0,
        "sim.network.messages": messages,
        "sim.network.bytes": total_bytes,
        "wire.messages": messages,
        "wire.bytes": total_bytes,
    }
