"""End-to-end property-based tests.

Hypothesis drives random small workloads through the Deco schemes and
checks the DESIGN.md invariants: exactness against the merged ground
truth, full-window coverage, and monotone emission.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401
from repro.aggregates import Sum, get_aggregate
from repro.core import RunConfig, run_scheme
from repro.core.workload import build_workload
from repro.metrics import correctness, results_match
from repro.streams.batch import EventBatch


@st.composite
def workload_parameters(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    window = draw(st.integers(min_value=200, max_value=1_500))
    n_windows = draw(st.integers(min_value=1, max_value=8))
    rate_change = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    epoch = draw(st.sampled_from([0.05, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return dict(n_nodes=n_nodes, window_size=window,
                n_windows=n_windows, rate_change=rate_change,
                epoch_seconds=epoch, seed=seed)


SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestEndToEndExactness:
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async",
                                        "deco_mon"])
    @given(params=workload_parameters())
    @SLOW
    def test_random_workloads_are_exact(self, scheme, params):
        config = RunConfig(scheme=scheme, rate_per_node=10_000,
                           delta_m=4, min_delta=2, **params)
        result, workload = run_scheme(config)
        assert results_match(result, workload.reference_result(Sum()))
        assert correctness(result, workload) == 1.0
        assert result.n_windows == params["n_windows"]

    @given(params=workload_parameters(),
           agg=st.sampled_from(["sum", "avg", "min", "max", "count"]))
    @SLOW
    def test_random_aggregates_are_exact(self, params, agg):
        config = RunConfig(scheme="deco_async", rate_per_node=10_000,
                           aggregate=agg, delta_m=4, min_delta=2,
                           **params)
        result, workload = run_scheme(config)
        assert results_match(
            result, workload.reference_result(get_aggregate(agg)))

    @given(params=workload_parameters())
    @SLOW
    def test_every_window_covers_exactly_window_size(self, params):
        config = RunConfig(scheme="deco_sync", rate_per_node=10_000,
                           delta_m=4, min_delta=2, **params)
        result, workload = run_scheme(config)
        for outcome in result.outcomes:
            assert outcome.events == params["window_size"]


class TestHandCraftedWorkloads:
    def make_stream(self, ts_list, start_id=0):
        n = len(ts_list)
        return EventBatch(np.arange(start_id, start_id + n),
                          np.ones(n),
                          np.asarray(ts_list, dtype=np.int64))

    def test_one_node_gets_everything(self):
        """Degenerate split: one node produces all events of a window.

        The streams carry a generous tail past the measured windows —
        the prediction buffers reach beyond the last boundary.
        """
        fast = self.make_stream(list(range(0, 8_000)))
        slow = self.make_stream(list(range(1_000_000, 1_000_400)),
                                start_id=10_000)
        workload = build_workload([fast, slow], 1_000, 4)
        assert workload.actual_sizes(0).tolist() == [1_000, 0]
        config = RunConfig(scheme="deco_sync", n_nodes=2,
                           window_size=1_000, n_windows=4,
                           delta_m=2, min_delta=2)
        result, _ = run_scheme(config, workload)
        assert results_match(result, workload.reference_result(Sum()))

    def test_alternating_dominance(self):
        """Rates flip between the nodes window over window — worst case
        for last-value prediction; corrections keep it exact."""
        a_ts, b_ts = [], []
        for block in range(10):
            lo, hi = block * 1_000_000, (block + 1) * 1_000_000
            fast, slow = (a_ts, b_ts) if block % 2 == 0 else (b_ts, a_ts)
            fast.extend(range(lo, hi, 1_250))      # 800 events
            slow.extend(range(lo, hi, 5_000))      # 200 events
        workload = build_workload(
            [self.make_stream(a_ts), self.make_stream(b_ts, 50_000)],
            1_000, 6)
        config = RunConfig(scheme="deco_sync", n_nodes=2,
                           window_size=1_000, n_windows=6,
                           delta_m=2, min_delta=2)
        result, _ = run_scheme(config, workload)
        assert results_match(result, workload.reference_result(Sum()))
        assert result.correction_steps > 0

    def test_identical_timestamps_tie_break(self):
        """All events share one timestamp: ordering falls back to the
        stable tie-break and windows remain well-defined."""
        a = self.make_stream([7] * 600)
        b = self.make_stream([7] * 600, start_id=10_000)
        workload = build_workload([a, b], 300, 4)
        assert np.all(workload.bounds[1:].sum(axis=1)
                      == np.arange(1, 5) * 300)
        config = RunConfig(scheme="central", n_nodes=2,
                           window_size=300, n_windows=4)
        result, _ = run_scheme(config, workload)
        assert results_match(result, workload.reference_result(Sum()))
