"""Failure-model tests (Section 4.3.4): drops, delays, crashes and
timeouts."""

import math

import pytest

import repro.baselines  # noqa: F401
from repro.aggregates import Sum
from repro.core import RunConfig
from repro.errors import ConfigurationError, SimulationError
from repro.metrics import results_match
from repro.runtime import ROOT_NAME, local_name
from repro.runtime.driver import build_run, run_simulation
from repro.sim import (MessageFaultInjector, build_star, crash_node_at,
                       recover_node_at)


def build(scheme, *, timeout=0.02, **overrides):
    base = dict(scheme=scheme, n_nodes=2, window_size=2_000,
                n_windows=10, rate_per_node=10_000, rate_change=0.05,
                seed=13, delta_m=4, min_delta=2,
                retransmit_timeout_s=timeout)
    base.update(overrides)
    config = RunConfig(**base)
    topo, ctx = build_run(config)
    return config, topo, ctx


def run_to_completion(config, topo, ctx):
    run_simulation(topo, ctx, config.resolved_batch_size(),
                   config.saturated)
    if ctx.result.n_windows < ctx.n_windows:
        raise SimulationError(
            f"only {ctx.result.n_windows}/{ctx.n_windows} windows")
    return ctx.result, ctx.workload


class TestDroppedMessages:
    @pytest.mark.parametrize("drop", [0.1, 0.3])
    def test_sync_recovers_from_control_drops(self, drop):
        """Dropped assignments/reports are recovered by timeouts; the
        results remain exactly correct."""
        config, topo, ctx = build("deco_sync")
        # Drop only control traffic (root <-> locals), not source input.
        pairs = {(ROOT_NAME, local_name(a)) for a in range(2)}
        pairs |= {(local_name(a), ROOT_NAME) for a in range(2)}
        injector = MessageFaultInjector(topo, drop_probability=drop,
                                        pairs=pairs, seed=5)
        result, workload = run_to_completion(config, topo, ctx)
        assert results_match(result, workload.reference_result(Sum()))
        assert injector.stats.dropped > 0
        assert result.retransmissions > 0

    def test_without_timeouts_drops_stall_the_run(self):
        config, topo, ctx = build("deco_sync", timeout=None)
        MessageFaultInjector(topo, drop_probability=0.3, seed=5)
        with pytest.raises(SimulationError):
            run_to_completion(config, topo, ctx)


class TestDelayedMessages:
    def test_sync_tolerates_delays(self):
        """Delayed messages reorder control flow but never corrupt
        results (duplicates are deduplicated by window index)."""
        config, topo, ctx = build("deco_sync")
        injector = MessageFaultInjector(topo, delay_probability=0.5,
                                        delay_s=0.005, seed=7)
        result, workload = run_to_completion(config, topo, ctx)
        assert results_match(result, workload.reference_result(Sum()))
        assert injector.stats.delayed > 0

    def test_mon_tolerates_delays(self):
        config, topo, ctx = build("deco_mon", timeout=None)
        MessageFaultInjector(topo, delay_probability=0.3,
                             delay_s=0.002, seed=3)
        result, workload = run_to_completion(config, topo, ctx)
        assert results_match(result, workload.reference_result(Sum()))


    @pytest.mark.parametrize("delay_s", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay_s):
        """A NaN delay would be counted but never applied, an infinite
        one would fail inside the kernel: both fail at construction."""
        topo = build_star(2, sizer=lambda msg: 1)
        with pytest.raises(ConfigurationError, match="delay_s"):
            MessageFaultInjector(topo, delay_probability=0.5,
                                 delay_s=delay_s)
        assert topo.network.delay_fn is None


class TestCrashRecovery:
    def test_root_crash_recovery(self):
        """A transient root crash loses in-flight reports; timeouts
        resend them and the run completes exactly."""
        config, topo, ctx = build("deco_sync", n_windows=8)
        crash_node_at(topo, ROOT_NAME, at_time=0.010)
        recover_node_at(topo, ROOT_NAME, at_time=0.030)
        result, workload = run_to_completion(config, topo, ctx)
        assert results_match(result, workload.reference_result(Sum()))

    def test_permanent_local_crash_stalls(self):
        """A permanently failed local node stalls the window (the paper
        re-elects a replacement; we surface the stall)."""
        config, topo, ctx = build("deco_sync", timeout=None)
        crash_node_at(topo, local_name(1), at_time=0.0002)
        with pytest.raises(SimulationError):
            run_to_completion(config, topo, ctx)


class TestWatermarkEviction:
    def test_root_watermark_advances_with_windows(self):
        config, topo, ctx = build("deco_sync", timeout=None)
        run_to_completion(config, topo, ctx)
        root = topo.root.behavior
        assert root.watermark.current == int(
            ctx.workload.boundary_ts[ctx.n_windows - 1])
