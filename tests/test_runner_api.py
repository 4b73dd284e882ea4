"""Tests for the runner and the high-level API."""

import pytest

from repro.api import ALL_SCHEMES, RunSummary, compare, run
from repro.core import RunConfig, available_schemes, get_scheme, \
    register_scheme, run_scheme
from repro.core import runner
from repro.core.runner import SchemeSpec
from repro.errors import ConfigurationError


class TestSchemeRegistry:
    def test_all_builtin_schemes_registered(self):
        registered = set(available_schemes())
        assert set(ALL_SCHEMES) <= registered
        assert "deco_monlocal" in registered

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            get_scheme("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_scheme("central")
        with pytest.raises(ConfigurationError, match="already"):
            register_scheme(spec)


class TestRunConfig:
    def test_batch_size_default_scales_with_window(self):
        small = RunConfig(scheme="central", window_size=2_000,
                          n_nodes=2).resolved_batch_size()
        large = RunConfig(scheme="central", window_size=200_000,
                          n_nodes=2).resolved_batch_size()
        assert large > small

    def test_latency_mode_uses_finer_batches(self):
        saturated = RunConfig(scheme="central", window_size=64_000,
                              n_nodes=2,
                              saturated=True).resolved_batch_size()
        paced = RunConfig(scheme="central", window_size=64_000,
                          n_nodes=2,
                          saturated=False).resolved_batch_size()
        assert paced < saturated

    def test_explicit_batch_size(self):
        config = RunConfig(scheme="central", batch_size=77)
        assert config.resolved_batch_size() == 77

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            RunConfig(scheme="central",
                      batch_size=0).resolved_batch_size()


class TestRunScheme:
    def test_run_produces_all_windows(self):
        result, workload = run_scheme(RunConfig(
            scheme="central", n_nodes=2, window_size=1_000,
            n_windows=5, rate_per_node=10_000))
        assert result.n_windows == 5
        assert workload.n_windows == 5
        assert result.messages > 0
        assert set(result.node_busy_s) == {"root", "local-0", "local-1"}

    def test_workload_reuse(self):
        config = RunConfig(scheme="central", n_nodes=2,
                           window_size=1_000, n_windows=5,
                           rate_per_node=10_000)
        _, workload = run_scheme(config)
        result2, workload2 = run_scheme(
            RunConfig(scheme="scotty", n_nodes=2, window_size=1_000,
                      n_windows=5, rate_per_node=10_000), workload)
        assert workload2 is workload


class TestApi:
    def test_run_throughput_mode(self):
        summary = run("central", n_nodes=2, window_size=1_000,
                      n_windows=6, rate_per_node=10_000)
        assert isinstance(summary, RunSummary)
        assert summary.throughput > 0
        assert summary.latency_s is None
        assert summary.correctness == 1.0
        assert "central" in str(summary)

    def test_run_latency_mode(self):
        summary = run("central", n_nodes=2, window_size=1_000,
                      n_windows=6, rate_per_node=10_000,
                      mode="latency")
        assert summary.latency_s > 0
        assert summary.throughput is None
        assert "latency" in str(summary)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run("central", mode="bogus")

    def test_non_finite_rate_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            run("deco_sync", rate_per_node=float("nan"))

    def test_compare_shares_workload(self):
        # Byte accounting is exact in paced mode (saturated runs keep
        # forwarding while the last emission's burst drains).
        results = compare(["central", "scotty"], n_nodes=2,
                          window_size=1_000, n_windows=6,
                          rate_per_node=10_000, mode="latency")
        assert results["central"].workload is results["scotty"].workload
        # Identical raw-forwarding protocols move identical bytes.
        assert results["central"].result.total_bytes == \
            results["scotty"].result.total_bytes

    def test_compare_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compare([])

    def test_config_kwargs_passthrough(self):
        summary = run("deco_sync", n_nodes=2, window_size=1_000,
                      n_windows=6, rate_per_node=10_000, delta_m=8,
                      min_delta=3)
        assert summary.correctness == 1.0


class TestStallDiagnostics:
    def test_stalled_scheme_raises(self, monkeypatch):
        """A scheme that cannot finish reports a diagnostic error
        rather than silently returning fewer windows."""
        from repro.errors import SimulationError

        class DeadRoot:
            def __init__(self, ctx):
                pass

            def on_start(self, node):
                pass

            def on_message(self, node, msg):
                pass

            def service_time(self, node, msg):
                return 0.0

        class DeadLocal:
            def __init__(self, index, ctx):
                pass

            def on_start(self, node):
                pass

            def on_message(self, node, msg):
                pass

            def service_time(self, node, msg):
                return 0.0

        # Registered for this test only: a scheme left behind would
        # change every later test that iterates the registry.
        monkeypatch.setitem(runner._SCHEMES, "dead_testonly",
                            SchemeSpec(name="dead_testonly",
                                       root_cls=DeadRoot,
                                       local_cls=DeadLocal))
        with pytest.raises(SimulationError, match="stalled"):
            run_scheme(RunConfig(scheme="dead_testonly", n_nodes=1,
                                 window_size=100, n_windows=2,
                                 rate_per_node=1_000))
