"""Unit and property tests for EventBatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streams.batch import EventBatch
from repro.streams.event import Event


def make_batch(n, ts_start=0):
    return EventBatch(
        np.arange(n), np.arange(n, dtype=float) * 0.5,
        np.arange(ts_start, ts_start + n))


class TestConstruction:
    def test_empty(self):
        b = EventBatch.empty()
        assert len(b) == 0
        assert list(b) == []

    def test_mismatched_columns_rejected(self):
        with pytest.raises(StreamError, match="equally sized"):
            EventBatch(np.arange(3), np.arange(2, dtype=float),
                       np.arange(3))

    def test_2d_rejected(self):
        with pytest.raises(StreamError):
            EventBatch(np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 2)))

    def test_concat_order_preserved(self):
        a, b = make_batch(3), make_batch(2, ts_start=100)
        c = EventBatch.concat([a, b])
        assert len(c) == 5
        assert list(c.ts) == [0, 1, 2, 100, 101]

    def test_concat_skips_empty(self):
        a = make_batch(2)
        c = EventBatch.concat([EventBatch.empty(), a, EventBatch.empty()])
        assert c == a

    def test_concat_nothing(self):
        assert len(EventBatch.concat([])) == 0


class TestSlicing:
    def test_take_drop_partition(self):
        b = make_batch(10)
        assert len(b.take(4)) == 4
        assert len(b.drop(4)) == 6
        assert EventBatch.concat([b.take(4), b.drop(4)]) == b

    def test_take_more_than_len(self):
        b = make_batch(3)
        assert b.take(10) == b

    def test_split(self):
        b = make_batch(5)
        head, tail = b.split(2)
        assert list(head.ids) == [0, 1]
        assert list(tail.ids) == [2, 3, 4]

    def test_slice_range(self):
        b = make_batch(10)
        assert list(b.slice_range(3, 6).ids) == [3, 4, 5]

    def test_getitem_int(self):
        b = make_batch(5)
        assert list(b[2]) == [Event(2, 1.0, 2)]


class TestOrdering:
    def test_sorted_by_ts_stable(self):
        # Two events share ts=5; arrival order must be preserved.
        b = EventBatch(np.array([0, 1, 2]), np.array([0.0, 1.0, 2.0]),
                       np.array([5, 3, 5]))
        s = b.sorted_by_ts()
        assert list(s.ts) == [3, 5, 5]
        assert list(s.ids) == [1, 0, 2]  # id 0 (first arrival) before id 2

    def test_is_ts_sorted(self):
        assert make_batch(4).is_ts_sorted()
        unsorted = EventBatch(np.array([0, 1]), np.zeros(2),
                              np.array([5, 3]))
        assert not unsorted.is_ts_sorted()
        assert unsorted.sorted_by_ts().is_ts_sorted()

    def test_first_last_ts(self):
        b = make_batch(5, ts_start=7)
        assert b.first_ts == 7
        assert b.last_ts == 11

    def test_first_ts_empty_raises(self):
        with pytest.raises(StreamError):
            EventBatch.empty().first_ts
        with pytest.raises(StreamError):
            EventBatch.empty().last_ts


class TestEquality:
    def test_eq(self):
        assert make_batch(3) == make_batch(3)
        assert make_batch(3) != make_batch(4)
        assert make_batch(3) != make_batch(3, ts_start=1)

    def test_eq_other_type(self):
        assert make_batch(1).__eq__(42) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_batch(1))

    def test_repr(self):
        assert "empty" in repr(EventBatch.empty())
        assert "n=3" in repr(make_batch(3))


@st.composite
def batches(draw, max_size=50):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ts = draw(st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=n, max_size=n))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e6, max_value=1e6),
        min_size=n, max_size=n))
    return EventBatch(np.arange(n), np.array(values, dtype=float),
                      np.array(ts, dtype=np.int64))


class TestBatchProperties:
    @given(batches(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=50)
    def test_split_is_partition(self, batch, n):
        head, tail = batch.split(n)
        assert len(head) + len(tail) == len(batch)
        assert EventBatch.concat([head, tail]) == batch

    @given(batches())
    @settings(max_examples=50)
    def test_sort_is_permutation_and_sorted(self, batch):
        s = batch.sorted_by_ts()
        assert s.is_ts_sorted()
        assert sorted(batch.ids.tolist()) == sorted(s.ids.tolist())
        assert sorted(batch.ts.tolist()) == s.ts.tolist()

    @given(batches())
    @settings(max_examples=50)
    def test_iter_matches_columns(self, batch):
        events = list(batch)
        assert len(events) == len(batch)
        for i, e in enumerate(events):
            assert e.id == batch.ids[i]
            assert e.ts == batch.ts[i]
