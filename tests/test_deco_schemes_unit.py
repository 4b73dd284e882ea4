"""Scheme-specific behaviour tests: bootstrap, corrections, epochs."""

import pytest

import repro.baselines  # noqa: F401 -- registers baseline schemes
from repro.aggregates import Sum, get_aggregate
from repro.analysis.determinism import TimedFingerprint
from repro.core import RunConfig, run_scheme
from repro.core.deco_async import (MAX_SPECULATION_AHEAD, SYNC_WINDOW,
                                   DecoAsyncRoot)
from repro.core.deco_sync import BOOTSTRAP_WINDOWS
from repro.metrics import results_match
from repro.runtime.driver import build_run, inject_sources


def build(scheme, **overrides):
    base = dict(scheme=scheme, n_nodes=2, window_size=2_000,
                n_windows=12, rate_per_node=10_000, rate_change=0.05,
                seed=11, delta_m=4, min_delta=2)
    base.update(overrides)
    config = RunConfig(**base)
    topo, ctx = build_run(config)
    inject_sources(topo, ctx, config.resolved_batch_size(),
                   config.saturated)
    topo.start()
    return config, topo, ctx


class TestBootstrap:
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async"])
    def test_bootstrap_windows_collect_raw_events(self, scheme):
        config, topo, ctx = build(scheme)
        topo.sim.run()
        # During bootstrap, raw events reached the root.
        assert topo.root.behavior.raw[0].end > 0
        # Bootstrap windows are marked with a single up-flow.
        for g in range(BOOTSTRAP_WINDOWS):
            outcome = ctx.result.outcome(g)
            assert outcome.up_flows == 1
            assert outcome.down_flows == 0

    def test_single_window_run_never_leaves_bootstrap(self):
        config, topo, ctx = build("deco_sync", n_windows=8,
                                  window_size=512)
        topo.sim.run()
        assert ctx.result.n_windows == 8

    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async"])
    def test_minimum_windows(self, scheme):
        # Runs shorter than the bootstrap phase still work.
        for n in (1, 2, 3, 4):
            result, workload = run_scheme(RunConfig(
                scheme=scheme, n_nodes=2, window_size=1_000,
                n_windows=n, rate_per_node=10_000, seed=1))
            assert result.n_windows == n
            assert results_match(result,
                                 workload.reference_result(Sum()))


class TestSyncCorrection:
    def test_corrections_marked_and_exact(self):
        config, topo, ctx = build("deco_sync", rate_change=0.5,
                                  epoch_seconds=0.05, n_windows=20,
                                  min_delta=1)
        topo.sim.run()
        corrected = [o for o in ctx.result.outcomes if o.corrected]
        assert corrected, "expected at least one correction"
        reference = ctx.workload.reference_result(Sum())
        for outcome in corrected:
            assert outcome.result == pytest.approx(
                reference[outcome.index])

    def test_prediction_errors_equal_corrections(self):
        config, topo, ctx = build("deco_sync", rate_change=0.5,
                                  epoch_seconds=0.05, n_windows=20,
                                  min_delta=1)
        topo.sim.run()
        assert ctx.result.prediction_errors == \
            ctx.result.correction_steps

    def test_corrections_recompute_events(self):
        config, topo, ctx = build("deco_sync", rate_change=0.5,
                                  epoch_seconds=0.05, n_windows=20,
                                  min_delta=1)
        topo.sim.run()
        if ctx.result.correction_steps:
            assert ctx.result.recomputed_events >= \
                ctx.result.correction_steps * config.window_size // 2


class TestAsyncSpeculation:
    def test_epoch_increases_with_corrections(self):
        config, topo, ctx = build("deco_async", rate_change=0.5,
                                  epoch_seconds=0.05, n_windows=20,
                                  min_delta=1)
        topo.sim.run()
        root = topo.root.behavior
        assert isinstance(root, DecoAsyncRoot)
        assert root.epoch == ctx.result.correction_steps

    def test_speculation_bounded(self):
        """Locals never speculate more than MAX_SPECULATION_AHEAD
        windows past their newest adopted assignment."""
        config, topo, ctx = build("deco_async", n_windows=16)
        sim = topo.sim
        violations = []

        def probe():
            for node in topo.locals:
                behavior = node.behavior
                if behavior._params is not None:
                    ahead = behavior._next_window - behavior._params[0]
                    if ahead > MAX_SPECULATION_AHEAD + 1:
                        violations.append(ahead)
            if sim.pending():
                sim.schedule(0.0005, probe)

        sim.schedule(0.0005, probe)
        sim.run()
        assert not violations

    def test_async_has_sync_style_window_two(self):
        config, topo, ctx = build("deco_async")
        topo.sim.run()
        outcome = ctx.result.outcome(SYNC_WINDOW)
        assert outcome is not None
        assert outcome.up_flows >= 1

    def test_stale_epoch_reports_dropped(self):
        """After a rollback the root ignores pre-correction reports."""
        config, topo, ctx = build("deco_async", rate_change=0.8,
                                  epoch_seconds=0.05, n_windows=24,
                                  min_delta=1, margin=2.0)
        topo.sim.run()
        # The run finished exactly despite corrections: stale reports
        # could not have contaminated any emitted window.
        reference = ctx.workload.reference_result(Sum())
        assert results_match(ctx.result, reference)
        assert ctx.result.correction_steps > 0

    def test_front_buffers_arrive_before_reports(self):
        """The eager FrontBuffer always precedes its window's report on
        the FIFO link, so head coverage is present at verification."""
        config, topo, ctx = build("deco_async", n_windows=16)
        topo.sim.run()
        assert ctx.result.n_windows == 16


class TestMonScheme:
    def test_rate_reports_pipelined(self):
        """Deco_mon sends the next window's rate report right after the
        partial result (3 flows per window, but pipelined)."""
        config, topo, ctx = build("deco_mon")
        topo.sim.run()
        assert ctx.result.n_windows == config.n_windows
        # Every window carries the mon flow signature.
        for o in ctx.result.outcomes:
            assert (o.up_flows, o.down_flows) == (2, 1)

    def test_mon_never_corrects(self):
        config, topo, ctx = build("deco_mon", rate_change=1.0,
                                  epoch_seconds=0.05)
        topo.sim.run()
        assert ctx.result.correction_steps == 0


class TestMonLocalScheme:
    def test_peer_traffic_exists(self):
        result, _ = run_scheme(RunConfig(
            scheme="deco_monlocal", n_nodes=4, window_size=2_000,
            n_windows=8, rate_per_node=10_000, seed=1))
        assert result.bytes_peer > 0
        # Peer exchange is O(n^2) messages vs O(n) up-flows, so it
        # dominates message counts.
        assert result.bytes_peer > result.bytes_down

    def test_results_sum_full_windows(self):
        """Deco_monlocal windows contain exactly l_global events even
        though boundaries are rate-derived."""
        result, workload = run_scheme(RunConfig(
            scheme="deco_monlocal", n_nodes=3, window_size=1_500,
            n_windows=8, rate_per_node=10_000, seed=2,
            aggregate="count"))
        for value in result.results:
            assert value == 1_500


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async",
                                        "central"])
    def test_same_seed_same_results(self, scheme):
        config = RunConfig(scheme=scheme, n_nodes=2, window_size=2_000,
                           n_windows=10, rate_per_node=10_000, seed=5)
        a, b = run_scheme(config)[0], run_scheme(config)[0]
        assert TimedFingerprint.of(a) == TimedFingerprint.of(b)
