"""Tests for prediction, delta smoothing, slicing, and verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import (DeltaSmoother, LastValuePredictor,
                                   LinearTrendPredictor,
                                   MovingAveragePredictor, PREDICTORS,
                                   predict_next, raw_delta)
from repro.core.slicing import async_layout, mon_local_sizes, sync_layout
from repro.core.verification import async_global_check, sync_prediction_ok
from repro.errors import ConfigurationError


class TestPredictionPrimitives:
    def test_predict_next_is_last_value(self):
        assert predict_next(601_000) == 601_000

    def test_raw_delta_absolute(self):
        # Paper example: 0.6M then 0.601M -> delta 1000.
        assert raw_delta(601_000, 600_000) == 1000
        assert raw_delta(600_000, 601_000) == 1000


class TestDeltaSmoother:
    def test_m1_tracks_last(self):
        s = DeltaSmoother(m=1)
        s.observe(100)
        s.observe(4)
        assert s.current == 4

    def test_mean_of_last_m(self):
        s = DeltaSmoother(m=3)
        for d in (10, 20, 60, 100):
            s.observe(d)
        assert s.current == 60  # mean(20, 60, 100)

    def test_min_delta_floor(self):
        s = DeltaSmoother(m=1, min_delta=50)
        s.observe(0)
        assert s.current == 50

    def test_empty_returns_floor(self):
        assert DeltaSmoother(m=2).current == 0
        assert DeltaSmoother(m=2, min_delta=7).current == 7

    def test_rounding(self):
        s = DeltaSmoother(m=2)
        s.observe(1)
        s.observe(2)
        assert s.current == 2  # 1.5 rounds up

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            DeltaSmoother(m=0)
        with pytest.raises(ConfigurationError):
            DeltaSmoother(min_delta=-1)
        with pytest.raises(ConfigurationError):
            DeltaSmoother().observe(-1)


class TestLastValuePredictor:
    def test_paper_example(self):
        p = LastValuePredictor()
        p.observe(600_000)
        p.observe(601_000)
        assert p.ready
        assert p.predict() == (601_000, 1000)

    def test_not_ready_before_two(self):
        p = LastValuePredictor()
        assert not p.ready
        p.observe(10)
        assert not p.ready

    def test_predict_without_history_rejected(self):
        with pytest.raises(ConfigurationError):
            LastValuePredictor().predict()

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            LastValuePredictor().observe(-1)

    def test_smoothed_delta(self):
        p = LastValuePredictor(m=2)
        for size in (100, 110, 130):  # deltas 10, 20
            p.observe(size)
        assert p.predict() == (130, 15)


class TestAblationPredictors:
    def test_moving_average(self):
        p = MovingAveragePredictor(k=2)
        p.observe(100)
        p.observe(200)
        assert p.predict()[0] == 150

    def test_moving_average_invalid_k(self):
        with pytest.raises(ConfigurationError):
            MovingAveragePredictor(k=0)

    def test_linear_trend_extrapolates(self):
        p = LinearTrendPredictor()
        p.observe(100)
        p.observe(120)
        assert p.predict()[0] == 140

    def test_linear_trend_clamped_at_zero(self):
        p = LinearTrendPredictor()
        p.observe(100)
        p.observe(10)
        assert p.predict()[0] == 0

    def test_one_observation_fallback(self):
        p = LinearTrendPredictor()
        p.observe(42)
        assert p.predict()[0] == 42

    def test_registry(self):
        assert set(PREDICTORS) == {"last-value", "moving-average",
                                   "linear-trend"}
        for cls in PREDICTORS.values():
            assert cls().predict if True else None

    def test_empty_predict_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingAveragePredictor().predict()
        with pytest.raises(ConfigurationError):
            LinearTrendPredictor().predict()


class TestSyncLayout:
    def test_paper_example(self):
        # l-hat = 0.601M, delta = 1000 -> slice 0.6M, buffer 2000.
        layout = sync_layout(601_000, 1000)
        assert layout.slice_size == 600_000
        assert layout.buffer_size == 2000
        assert layout.total == 602_000

    def test_degenerate_slice(self):
        layout = sync_layout(5, 10)
        assert layout.slice_size == 0
        assert layout.buffer_size == 20

    def test_zero_delta(self):
        layout = sync_layout(100, 0)
        assert layout.slice_size == 100
        assert layout.buffer_size == 0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            sync_layout(-1, 0)
        with pytest.raises(ConfigurationError):
            sync_layout(10, -1)

    @given(st.integers(min_value=0, max_value=10**7),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_covers_acceptance_region(self, predicted, delta):
        layout = sync_layout(predicted, delta)
        # Every acceptable actual size (Eq. 5-6) is fully covered:
        # slice events belong to the window, buffer reaches the end.
        for actual in {max(0, predicted - delta),
                       predicted, predicted + delta - 1}:
            if predicted - delta <= actual < predicted + delta:
                assert layout.slice_size <= actual <= layout.total


class TestAsyncLayout:
    def test_paper_example(self):
        # l-hat = 0.601M, delta = 1000 -> slice 0.599M, buffers 1000.
        layout = async_layout(601_000, 1000)
        assert layout.slice_size == 599_000
        assert layout.fbuffer_size == layout.ebuffer_size == 1000
        assert layout.total == 601_000

    def test_degenerate_split_half(self):
        layout = async_layout(10, 6)
        assert layout.slice_size == 0
        assert layout.fbuffer_size == layout.ebuffer_size == 5

    def test_degenerate_odd(self):
        layout = async_layout(9, 100)
        assert layout.fbuffer_size == 5
        assert layout.total >= 9

    @given(st.integers(min_value=0, max_value=10**7),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100)
    def test_total_consumes_at_least_prediction(self, predicted, delta):
        layout = async_layout(predicted, delta)
        assert layout.total >= predicted
        assert layout.total <= predicted + 2 * delta + 1


class TestSyncVerification:
    def test_paper_example_accepts(self):
        # actual 0.6005M, predicted 0.601M, delta 1000.
        assert sync_prediction_ok(600_500, 601_000, 1000)

    def test_bounds_half_open(self):
        assert sync_prediction_ok(600_000, 601_000, 1000)  # == lower
        assert not sync_prediction_ok(602_000, 601_000, 1000)  # == upper
        assert not sync_prediction_ok(599_999, 601_000, 1000)


class TestAsyncVerification:
    def test_paper_example_global(self):
        # l_global 1M, prev buffer + slice = 0.9981M, + current buffer
        # = 1.0001M: prediction correct.
        check = async_global_check(1_000_000, root_slice=996_000,
                                   prev_root_buffer=2_100,
                                   current_root_buffer=2_000)
        assert check.ok

    def test_overestimation_rejected(self):
        assert not async_global_check(100, 90, 20, 10).ok  # Eq. 14

    def test_underestimation_rejected(self):
        assert not async_global_check(100, 50, 10, 20).ok  # Eq. 15

    def test_exact_cover_empty_current_buffer(self):
        assert async_global_check(100, 90, 10, 0).ok


class TestMonLocalSizes:
    def test_paper_example(self):
        # Rates 1.2M and 0.8M, window 1M -> 0.6M and 0.4M (Section 4.1).
        assert mon_local_sizes([1.2e6, 0.8e6], 1_000_000) == \
            [600_000, 400_000]

    def test_sums_to_global(self):
        sizes = mon_local_sizes([3.0, 3.0, 3.0], 100)
        assert sum(sizes) == 100

    def test_rounding_by_fraction(self):
        sizes = mon_local_sizes([1.0, 1.0, 2.0], 10)
        assert sum(sizes) == 10
        assert sizes[2] == 5

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            mon_local_sizes([], 10)
        with pytest.raises(ConfigurationError):
            mon_local_sizes([-1.0, 2.0], 10)
        with pytest.raises(ConfigurationError):
            mon_local_sizes([0.0, 0.0], 10)
        with pytest.raises(ConfigurationError):
            mon_local_sizes([1.0], 0)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6),
                    min_size=1, max_size=10),
           st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100)
    def test_partition_property(self, rates, window):
        sizes = mon_local_sizes(rates, window)
        assert sum(sizes) == window
        assert all(s >= 0 for s in sizes)
