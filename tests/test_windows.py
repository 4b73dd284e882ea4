"""Unit and property tests for the count window specs and slicer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.streams.batch import EventBatch
from repro.windows import (CountSlicer, SlidingCountWindow,
                           TumblingCountWindow)
from repro.aggregates import Sum


def batch_of(n, ts=None, start_id=0):
    ts = np.arange(n) if ts is None else np.asarray(ts)
    return EventBatch(np.arange(start_id, start_id + n),
                      np.ones(n), ts.astype(np.int64))


class TestSpecsValidation:
    @pytest.mark.parametrize("spec", [
        TumblingCountWindow(0),
        SlidingCountWindow(0, 1),
        SlidingCountWindow(4, 0),
        SlidingCountWindow(4, 5),
    ])
    def test_invalid(self, spec):
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_valid(self):
        TumblingCountWindow(5).validate()
        SlidingCountWindow(6, 2).validate()


class TestCountSlicer:
    def test_tumbling_results(self):
        slicer = CountSlicer(TumblingCountWindow(4), Sum())
        results = slicer.add(batch_of(12))
        assert [r.result for r in results] == [4.0, 4.0, 4.0]
        assert [r.window_index for r in results] == [0, 1, 2]

    def test_sliding_results_match_naive(self):
        spec = SlidingCountWindow(6, 2)
        values = np.arange(30, dtype=float)
        batch = EventBatch(np.arange(30), values, np.arange(30))
        slicer = CountSlicer(spec, Sum())
        results = slicer.add(batch)
        for r in results:
            start = r.window_index * spec.step
            expected = float(values[start:start + spec.length].sum())
            assert r.result == expected

    def test_each_event_lifted_once(self):
        slicer = CountSlicer(SlidingCountWindow(8, 2), Sum())
        slicer.add(batch_of(100))
        assert slicer.events_lifted == 100

    def test_incremental_feed_equivalence(self):
        spec = SlidingCountWindow(6, 3)
        big = CountSlicer(spec, Sum()).add(batch_of(60))
        small = CountSlicer(spec, Sum())
        collected = []
        for i in range(0, 60, 7):
            collected.extend(small.add(batch_of(min(7, 60 - i),
                                                start_id=i,
                                                ts=np.arange(i, min(i + 7,
                                                                    60)))))
        assert [(r.window_index, r.result) for r in collected] == \
            [(r.window_index, r.result) for r in big]


class TestWindowProperties:
    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=50, deadline=None)
    def test_slicer_equals_naive(self, length, step, n):
        if step > length:
            step = length
        values = np.arange(n, dtype=float)
        batch = EventBatch(np.arange(n), values, np.arange(n))
        results = CountSlicer(SlidingCountWindow(length, step),
                              Sum()).add(batch)
        expected_count = max(0, (n - length) // step + 1)
        assert len(results) == expected_count
        for r in results:
            start = r.window_index * step
            assert r.result == float(values[start:start + length].sum())
