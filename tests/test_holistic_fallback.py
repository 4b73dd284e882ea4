"""Paper footnote 2: non-decomposable aggregates fall back to
centralized aggregation, transparently, for every Deco scheme."""

import pytest

import repro.baselines  # noqa: F401
from repro.aggregates import get_aggregate
from repro.core import RunConfig, run_scheme
from repro.baselines.central import CentralLocal, CentralRoot
from repro.metrics import results_match
from repro.runtime.driver import build_run


def config_for(scheme, aggregate):
    return RunConfig(scheme=scheme, n_nodes=2, window_size=1_000,
                     n_windows=6, rate_per_node=10_000,
                     rate_change=0.05, aggregate=aggregate, seed=3)


class TestFallback:
    @pytest.mark.parametrize("scheme", ["deco_mon", "deco_sync",
                                        "deco_async", "approx"])
    def test_median_routes_to_central_behaviours(self, scheme):
        topo, ctx = build_run(config_for(scheme, "median"))
        assert isinstance(topo.root.behavior, CentralRoot)
        assert isinstance(topo.local(0).behavior, CentralLocal)

    def test_decomposable_keeps_deco_behaviours(self):
        topo, ctx = build_run(config_for("deco_sync", "sum"))
        assert not isinstance(topo.root.behavior, CentralRoot)

    def test_centralized_schemes_untouched(self):
        topo, ctx = build_run(config_for("scotty", "median"))
        from repro.baselines.scotty import ScottyRoot
        assert isinstance(topo.root.behavior, ScottyRoot)

    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async"])
    @pytest.mark.parametrize("aggregate", ["median", "quantile(0.9)"])
    def test_holistic_results_exact(self, scheme, aggregate):
        result, workload = run_scheme(config_for(scheme, aggregate))
        reference = workload.reference_result(get_aggregate(aggregate))
        assert results_match(result, reference)

    def test_holistic_costs_central_network(self):
        deco, _ = run_scheme(config_for("deco_async", "median"))
        central, _ = run_scheme(config_for("central", "median"))
        # Same protocol, same bytes: the fallback really is Central.
        assert deco.bytes_up == central.bytes_up
