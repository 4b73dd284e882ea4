"""Cross-scheme integration tests: every scheme against the ground truth.

DESIGN.md invariant 1: every global window emitted by any Deco scheme
(and every exact baseline) aggregates the same events as Central.
"""

import pytest

from repro.aggregates import get_aggregate
from repro.api import compare
from repro.core import RunConfig, run_scheme
from repro.metrics import correctness, results_match

EXACT_SCHEMES = ("central", "scotty", "disco", "deco_mon", "deco_sync",
                 "deco_async")
DECO_SCHEMES = ("deco_mon", "deco_sync", "deco_async")


def small_config(scheme, **overrides):
    base = dict(scheme=scheme, n_nodes=2, window_size=2_000,
                n_windows=12, rate_per_node=10_000, rate_change=0.05,
                seed=7, delta_m=4, min_delta=2)
    base.update(overrides)
    return RunConfig(**base)


class TestExactness:
    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    @pytest.mark.parametrize("change", [0.0, 0.05, 0.5])
    def test_results_equal_ground_truth(self, scheme, change):
        result, workload = run_scheme(small_config(scheme,
                                                   rate_change=change))
        reference = workload.reference_result(
            get_aggregate("sum"))
        assert results_match(result, reference)
        assert correctness(result, workload) == 1.0

    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    def test_paced_mode_also_exact(self, scheme):
        result, workload = run_scheme(
            small_config(scheme, saturated=False))
        reference = workload.reference_result(get_aggregate("sum"))
        assert results_match(result, reference)

    @pytest.mark.parametrize("aggregate", ["sum", "count", "min", "max",
                                           "avg", "variance"])
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async"])
    def test_all_decomposable_aggregates(self, scheme, aggregate):
        result, workload = run_scheme(
            small_config(scheme, aggregate=aggregate))
        reference = workload.reference_result(get_aggregate(aggregate))
        assert results_match(result, reference)

    @pytest.mark.parametrize("n_nodes", [1, 3, 5])
    @pytest.mark.parametrize("scheme", DECO_SCHEMES)
    def test_node_counts(self, scheme, n_nodes):
        result, workload = run_scheme(
            small_config(scheme, n_nodes=n_nodes))
        reference = workload.reference_result(get_aggregate("sum"))
        assert results_match(result, reference)

    @pytest.mark.parametrize("scheme", DECO_SCHEMES)
    def test_heterogeneous_rates(self, scheme):
        from repro.core.workload import generate_workload
        workload = generate_workload(3, 3_000, 10,
                                     rates=[5_000, 10_000, 20_000],
                                     rate_change=0.05, seed=3)
        result, _ = run_scheme(small_config(scheme, n_nodes=3,
                                            window_size=3_000,
                                            n_windows=10), workload)
        reference = workload.reference_result(get_aggregate("sum"))
        assert results_match(result, reference)

    @pytest.mark.parametrize("scheme", DECO_SCHEMES)
    def test_rate_steps_past_the_buffer(self, scheme):
        """Short epochs move some windows past ``predicted + delta``
        without a step large enough to look like a rate change: a
        verification that accepts them loses the events its buffer
        never held."""
        result, workload = run_scheme(small_config(
            scheme, n_nodes=3, rate_change=0.1, seed=1,
            epoch_seconds=0.05))
        reference = workload.reference_result(get_aggregate("sum"))
        assert results_match(result, reference)

    @pytest.mark.parametrize("scheme", DECO_SCHEMES)
    def test_extreme_rate_change(self, scheme):
        result, workload = run_scheme(
            small_config(scheme, rate_change=1.0, epoch_seconds=0.05))
        reference = workload.reference_result(get_aggregate("sum"))
        assert results_match(result, reference)
        # Big changes force corrections for the predicting schemes...
        if scheme in ("deco_sync", "deco_async"):
            assert result.correction_steps > 0
        # ...and every corrected window still carries the right value.


class TestApproxIncorrectness:
    def test_approx_correct_at_stable_rates(self):
        result, workload = run_scheme(
            small_config("approx", rate_change=0.0))
        assert correctness(result, workload) > 0.999

    def test_approx_degrades_with_change(self):
        low, wl_low = run_scheme(small_config(
            "approx", rate_change=0.02, epoch_seconds=0.05,
            n_windows=20, margin=2.0))
        high, wl_high = run_scheme(small_config(
            "approx", rate_change=0.8, epoch_seconds=0.05,
            n_windows=20, margin=2.5))
        assert correctness(high, wl_high) < correctness(low, wl_low)

    def test_approx_never_corrects(self):
        result, _ = run_scheme(small_config("approx", rate_change=0.5,
                                            margin=2.5))
        assert result.correction_steps == 0


class TestWatermarks:
    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    def test_emissions_in_window_order(self, scheme):
        result, _ = run_scheme(small_config(scheme))
        indices = [o.index for o in result.outcomes]
        assert indices == sorted(indices) == list(range(len(indices)))

    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    def test_emit_times_monotonic(self, scheme):
        result, _ = run_scheme(small_config(scheme))
        times = [o.emit_time
                 for o in sorted(result.outcomes,
                                 key=lambda o: o.index)]
        assert all(b >= a
                   for a, b in zip(times, times[1:], strict=False))


class TestFlows:
    def test_mon_uses_three_flows(self):
        result, _ = run_scheme(small_config("deco_mon"))
        for outcome in result.outcomes:
            assert outcome.up_flows == 2
            assert outcome.down_flows == 1

    def test_sync_uses_two_flows_plus_corrections(self):
        result, _ = run_scheme(small_config("deco_sync"))
        for outcome in result.outcomes[3:]:
            if outcome.corrected:
                assert outcome.up_flows == 2
                assert outcome.down_flows == 2
            else:
                assert outcome.up_flows == 1
                assert outcome.down_flows == 1

    def test_centralized_single_flow(self):
        result, _ = run_scheme(small_config("central"))
        for outcome in result.outcomes:
            assert outcome.up_flows == 1
            assert outcome.down_flows == 0


class TestNetworkShape:
    def test_deco_moves_fewer_bytes_than_central(self):
        results = compare(["central", "deco_mon", "deco_async"],
                          n_nodes=2, window_size=2_000, n_windows=15,
                          rate_per_node=10_000, rate_change=0.05,
                          seed=7, delta_m=4, min_delta=2)
        assert results["deco_mon"].total_bytes < \
            0.01 * results["central"].total_bytes
        assert results["deco_async"].total_bytes < \
            0.6 * results["central"].total_bytes

    def test_disco_strings_cost_more(self):
        results = compare(["central", "disco"], n_nodes=2,
                          window_size=2_000, n_windows=10,
                          rate_per_node=10_000, seed=7)
        assert results["disco"].total_bytes > \
            2.5 * results["central"].total_bytes


class TestMemoryBounds:
    @pytest.mark.parametrize("scheme", DECO_SCHEMES)
    def test_local_buffers_released(self, scheme):
        """DESIGN.md / Section 4.3: local memory stays bounded — events
        of verified windows are dropped."""
        from repro.runtime.driver import build_run, inject_sources
        config = small_config(scheme, n_windows=15)
        topo, ctx = build_run(config)
        inject_sources(topo, ctx, config.resolved_batch_size(), True)
        topo.start()
        topo.sim.run()
        per_node = config.window_size // config.n_nodes
        for node in topo.locals:
            retained = node.behavior.buffer.retained
            assert retained < 12 * per_node
