"""Tests for the metrics layer."""

import numpy as np
import pytest

from repro.core.records import RunResult, WindowOutcome
from repro.core.workload import generate_workload
from repro.errors import ConfigurationError
from repro.metrics import (correctness, format_si, format_table,
                           network_saving, per_window_correctness,
                           percentile_latency, results_match,
                           sustainable_throughput, trigger_times,
                           window_latencies, window_overlap)


def make_result(n_windows=6, window_size=100, spacing=1.0,
                spans=None):
    result = RunResult(scheme="test", n_nodes=2,
                       window_size=window_size)
    for g in range(n_windows):
        result.outcomes.append(WindowOutcome(
            index=g, result=float(g), emit_time=(g + 1) * spacing,
            spans=spans[g] if spans else {}))
    result.sim_time = n_windows * spacing
    return result


class TestThroughput:
    def test_steady_state_excludes_warmup(self):
        result = make_result(n_windows=10, window_size=100, spacing=1.0)
        # Make the first window pathologically slow.
        result.outcomes[0].emit_time = 0.001
        thr = sustainable_throughput(result)  # skip=3 by default
        assert thr == pytest.approx(100.0)

    def test_explicit_skip_zero(self):
        result = make_result(n_windows=4, window_size=100, spacing=1.0)
        assert sustainable_throughput(result, skip=0) == pytest.approx(
            400 / 4.0)

    def test_small_runs_default_to_no_skip(self):
        result = make_result(n_windows=4, window_size=100)
        assert sustainable_throughput(result) == pytest.approx(100.0)

    def test_skip_too_large_rejected(self):
        result = make_result(n_windows=4)
        with pytest.raises(ConfigurationError):
            sustainable_throughput(result, skip=4)

    def test_no_emissions_rejected(self):
        result = RunResult(scheme="x", n_nodes=1, window_size=10)
        with pytest.raises(ConfigurationError):
            sustainable_throughput(result)


class TestThroughputSkipsByIndex:
    """Regression: warm-up skipping is by window *index*, not list
    position, and gapped outcome sets are rejected by name instead of
    silently anchoring the steady-state interval on the wrong window."""

    @staticmethod
    def result_with_windows(pairs, window_size=100):
        """A result holding exactly the given (index, emit_time)s."""
        result = RunResult(scheme="test", n_nodes=2,
                           window_size=window_size)
        for index, emit in pairs:
            result.outcomes.append(WindowOutcome(
                index=index, result=float(index), emit_time=emit))
        result.sim_time = max(t for _, t in pairs)
        return result

    def test_missing_bootstrap_window_keeps_index_anchor(self):
        # Window 1 never emitted (crashed early run); windows 2..9 have
        # deliberately non-uniform emit times so a positional anchor
        # (list slot skip-1 = window 3) would give a different answer
        # than the correct index anchor (window 2).
        pairs = [(0, 1.0)] + list(
            zip(range(2, 10), [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 20.0],
                strict=True))
        result = self.result_with_windows(pairs)
        # Steady state: windows 3..9 (7 windows) over t(9) - t(2).
        assert sustainable_throughput(result, skip=3) == pytest.approx(
            7 * 100 / (20.0 - 3.0))

    def test_missing_steady_window_rejected_by_name(self):
        pairs = [(g, float(g + 1)) for g in range(10) if g != 5]
        result = self.result_with_windows(pairs)
        with pytest.raises(ConfigurationError, match=r"\[5\]"):
            sustainable_throughput(result, skip=3)

    def test_missing_anchor_window_rejected_by_name(self):
        pairs = [(g, float(g + 1)) for g in range(10) if g != 2]
        result = self.result_with_windows(pairs)
        with pytest.raises(ConfigurationError, match=r"\[2\]"):
            sustainable_throughput(result, skip=3)

    def test_skip_zero_gap_rejected_by_name(self):
        result = self.result_with_windows([(0, 1.0), (2, 3.0)])
        with pytest.raises(ConfigurationError, match=r"\[1\]"):
            sustainable_throughput(result, skip=0)

    def test_contiguous_run_unchanged(self):
        result = make_result(n_windows=10, window_size=100, spacing=1.0)
        assert sustainable_throughput(result, skip=3) == pytest.approx(
            7 * 100 / (10.0 - 3.0))


class TestLatency:
    def setup_method(self):
        self.workload = generate_workload(2, 1_000, 6,
                                          rate_per_node=10_000, seed=1)

    def test_triggers_monotonic(self):
        triggers = trigger_times(self.workload, batch_size=64)
        assert np.all(np.diff(triggers) >= 0)

    def test_triggers_at_least_boundary_time(self):
        triggers = trigger_times(self.workload, batch_size=64)
        for g in range(self.workload.n_windows):
            assert triggers[g] >= self.workload.boundary_seconds(g)

    def test_batch_size_one_equals_boundary(self):
        triggers = trigger_times(self.workload, batch_size=1)
        for g in range(self.workload.n_windows):
            assert triggers[g] == pytest.approx(
                self.workload.boundary_seconds(g), abs=1e-9)

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            trigger_times(self.workload, 0)

    def test_latencies_positive_for_late_emits(self):
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        triggers = trigger_times(self.workload, 64)
        for g in range(6):
            result.outcomes.append(WindowOutcome(
                index=g, result=0.0, emit_time=triggers[g] + 0.01))
        lat = window_latencies(result, self.workload, 64)
        assert np.allclose(lat, 0.01)
        assert percentile_latency(result, self.workload, 64, 99) == \
            pytest.approx(0.01)

    def test_skip_bootstrap_excludes_everything_rejected(self):
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        result.outcomes.append(WindowOutcome(index=0, result=0.0,
                                             emit_time=1.0))
        with pytest.raises(ConfigurationError):
            window_latencies(result, self.workload, 64,
                             skip_bootstrap=3)

    def test_missing_steady_window_rejected_by_name(self):
        """Regression: a fault run that lost a steady-state window must
        not report a latency distribution over the survivors."""
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        triggers = trigger_times(self.workload, 64)
        for g in range(6):
            if g == 4:
                continue
            result.outcomes.append(WindowOutcome(
                index=g, result=0.0, emit_time=triggers[g] + 0.01))
        with pytest.raises(ConfigurationError, match=r"\[4\]"):
            window_latencies(result, self.workload, 64)

    def test_missing_bootstrap_window_tolerated(self):
        """Windows below skip_bootstrap are excluded by *index*; their
        absence from the outcomes is irrelevant."""
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        triggers = trigger_times(self.workload, 64)
        for g in range(3, 6):
            result.outcomes.append(WindowOutcome(
                index=g, result=0.0, emit_time=triggers[g] + 0.01))
        lat = window_latencies(result, self.workload, 64)
        assert len(lat) == 3
        assert np.allclose(lat, 0.01)

    def _faulty_result(self, dropped=4):
        """A run missing one steady-state window (fault-run shape)."""
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        triggers = trigger_times(self.workload, 64)
        for g in range(6):
            if g == dropped:
                continue
            result.outcomes.append(WindowOutcome(
                index=g, result=0.0, emit_time=triggers[g] + 0.01))
        result.sim_time = float(triggers[-1]) + 0.01
        return result, triggers

    def test_missing_policy_exclude_measures_survivors(self):
        result, _ = self._faulty_result()
        lat = window_latencies(result, self.workload, 64,
                               missing="exclude")
        assert len(lat) == 2  # windows 3 and 5
        assert np.allclose(lat, 0.01)

    def test_missing_policy_penalize_charges_run_end(self):
        result, triggers = self._faulty_result()
        lat = window_latencies(result, self.workload, 64,
                               missing="penalize")
        assert len(lat) == 3
        # The dropped window (index 4, the middle of the sorted steady
        # set) is charged from its trigger to the end of the run — a
        # lower bound on its true latency, far above the survivors'.
        penalty = result.sim_time - triggers[4]
        assert lat[1] == pytest.approx(penalty)
        assert penalty > 0.01

    def test_missing_policy_unknown_rejected(self):
        result, _ = self._faulty_result()
        with pytest.raises(ConfigurationError, match="policy"):
            window_latencies(result, self.workload, 64,
                             missing="ignore")

    def test_dropped_windows_named(self):
        from repro.metrics import dropped_windows
        result, _ = self._faulty_result()
        assert dropped_windows(result, self.workload) == [4]


class TestNetworkMetrics:
    def test_network_saving(self):
        deco = make_result()
        deco.bytes_up = 100
        central = make_result()
        central.bytes_up = 10_000
        assert network_saving(deco, central) == pytest.approx(0.99)

    def test_saving_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            network_saving(make_result(), make_result())


class TestCorrectness:
    def setup_method(self):
        self.workload = generate_workload(2, 1_000, 4,
                                          rate_per_node=10_000, seed=2)

    def outcome_with_gt_spans(self, g, shift=0):
        spans = {a: (self.workload.span(g, a)[0] + shift,
                     self.workload.span(g, a)[1] + shift)
                 for a in range(2)}
        return WindowOutcome(index=g, result=0.0, emit_time=1.0,
                             spans=spans)

    def test_exact_spans_are_fully_correct(self):
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        for g in range(4):
            result.outcomes.append(self.outcome_with_gt_spans(g))
        assert correctness(result, self.workload) == 1.0
        assert per_window_correctness(result, self.workload) == [1.0] * 4

    def test_shifted_spans_lose_overlap(self):
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        for g in range(4):
            result.outcomes.append(self.outcome_with_gt_spans(g,
                                                              shift=100))
        value = correctness(result, self.workload)
        assert 0.5 < value < 1.0
        assert window_overlap(result, self.workload, 0) == \
            1_000 - 2 * 100

    def test_missing_window_counts_zero(self):
        result = RunResult(scheme="x", n_nodes=2, window_size=1_000)
        result.outcomes.append(self.outcome_with_gt_spans(0))
        assert correctness(result, self.workload) == pytest.approx(0.25)

    def test_results_match(self):
        result = RunResult(scheme="x", n_nodes=1, window_size=10)
        result.outcomes = [
            WindowOutcome(index=0, result=1.0, emit_time=0.0),
            WindowOutcome(index=1, result=float("nan"), emit_time=0.0)]
        assert results_match(result, [1.0, float("nan")])
        assert not results_match(result, [1.1, float("nan")])
        assert not results_match(result, [1.0])


class TestReport:
    def test_format_si(self):
        assert format_si(75_900_000, " ev/s") == "75.90M ev/s"
        assert format_si(1_500, "B") == "1.50KB"
        assert format_si(3.2) == "3.20"
        assert format_si(2.5e9) == "2.50G"

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, "x"], [22, "yyyy"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")
        assert all(len(l) <= len(max(lines, key=len)) for l in lines)

    def test_format_table_floats(self):
        table = format_table(["v"], [[1.23456789]])
        assert "1.235" in table
