"""The ground-truth window split (:func:`repro.core.workload.build_workload`)
against its definition: the stable timestamp merge of the node streams.

The program never materialises that merge; :func:`merge_batches` here
is the oracle the counted cut is compared against.
"""

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.workload import build_workload, require_ts_sorted
from repro.errors import ConfigurationError, StreamError
from repro.streams.batch import EventBatch
from repro.streams.generator import RateChangeGenerator


def merge_batches(
        batches: Sequence[EventBatch]) -> tuple[EventBatch, np.ndarray]:
    """Stably merge per-source batches by timestamp.

    Returns the merged batch and a parallel ``source`` array giving, for
    each merged position, the index of the contributing input batch.
    Ties are broken by input order (stable), matching the paper's window
    operator model.
    """
    if not batches:
        raise ConfigurationError("merge_batches needs at least one batch")
    require_ts_sorted(batches)
    combined = EventBatch.concat(list(batches))
    source = np.concatenate([
        np.full(len(b), i, dtype=np.int64) for i, b in enumerate(batches)
    ]) if len(combined) else np.empty(0, dtype=np.int64)
    order = np.argsort(combined.ts, kind="stable")
    merged = EventBatch._view(combined.ids[order],
                              combined.values[order],
                              combined.ts[order])
    return merged, source[order]


def batch_with_ts(ts, id_start=0):
    ts = np.asarray(ts, dtype=np.int64)
    return EventBatch(np.arange(id_start, id_start + len(ts)),
                      np.zeros(len(ts)), ts)


class TestMergeBatches:
    def test_simple_interleave(self):
        a = batch_with_ts([1, 4, 7])
        b = batch_with_ts([2, 3, 9], id_start=10)
        merged, source = merge_batches([a, b])
        assert list(merged.ts) == [1, 2, 3, 4, 7, 9]
        assert list(source) == [0, 1, 1, 0, 0, 1]

    def test_tie_break_first_input_wins(self):
        a = batch_with_ts([5])
        b = batch_with_ts([5], id_start=10)
        merged, source = merge_batches([a, b])
        assert list(source) == [0, 1]
        assert list(merged.ids) == [0, 10]

    def test_single_input(self):
        a = batch_with_ts([1, 2, 3])
        merged, source = merge_batches([a])
        assert merged == a
        assert np.all(source == 0)

    def test_empty_inputs(self):
        merged, source = merge_batches([EventBatch.empty(),
                                        EventBatch.empty()])
        assert len(merged) == 0
        assert len(source) == 0

    def test_no_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_batches([])

    def test_unsorted_input_rejected(self):
        with pytest.raises(StreamError, match="not timestamp-sorted"):
            merge_batches([batch_with_ts([5, 3])])

    def test_restriction_preserves_per_source_order(self):
        gens = [RateChangeGenerator(100, 0.5, seed=s) for s in range(3)]
        streams = [g.generate(200) for g in gens]
        merged, source = merge_batches(streams)
        for i, stream in enumerate(streams):
            restricted = merged.ids[source == i]
            assert list(restricted) == list(stream.ids)


def local_sizes(streams, window_size):
    """Per-window, per-source event counts of the ground-truth split."""
    return np.diff(build_workload(streams, window_size).bounds, axis=0)


class TestActualLocalSizes:
    def test_counts_sum_to_window_size(self):
        streams = [RateChangeGenerator(100, 0.3, seed=s).generate(1000)
                   for s in range(4)]
        sizes = local_sizes(streams, 500)
        assert sizes.shape == (8, 4)
        assert np.all(sizes.sum(axis=1) == 500)

    def test_equal_rates_near_equal_split(self):
        streams = [RateChangeGenerator(100, 0.0, seed=0).generate(1000)
                   for _ in range(2)]
        sizes = local_sizes(streams, 200)
        # Identical deterministic streams interleave 1:1.
        assert np.all(sizes == 100)

    def test_rate_proportionality(self):
        fast = RateChangeGenerator(300, 0.0, seed=0).generate(3000)
        slow = RateChangeGenerator(100, 0.0, seed=0).generate(1000)
        sizes = local_sizes([fast, slow], 1000)
        # Section 4.1 example: split proportional to event rates (3:1).
        assert np.all(np.abs(sizes[:, 0] - 750) <= 2)

    def test_incomplete_tail_ignored(self):
        sizes = local_sizes([batch_with_ts(range(7))], 3)
        assert sizes.shape == (2, 1)

    def test_invalid_window_size(self):
        with pytest.raises(ConfigurationError):
            local_sizes([batch_with_ts(range(5))], 0)


class TestWindowBoundaries:
    def test_cumulative(self):
        # Merged source order: 0, 1, 0, 0, 1, 1.
        streams = [batch_with_ts([0, 2, 3]), batch_with_ts([1, 4, 5])]
        bounds = build_workload(streams, 3).bounds[1:]
        assert bounds.tolist() == [[2, 1], [3, 3]]


class TestGlobalWindows:
    def test_partition(self):
        wl = build_workload([batch_with_ts(range(10))], 4)
        assert wl.n_windows == 2
        assert list(wl.window_events(0).ts) == [0, 1, 2, 3]
        assert list(wl.window_events(1).ts) == [4, 5, 6, 7]

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            build_workload([batch_with_ts([1])], 0)


@st.composite
def source_streams(draw):
    n_sources = draw(st.integers(min_value=1, max_value=4))
    streams = []
    for i in range(n_sources):
        n = draw(st.integers(min_value=0, max_value=40))
        ts = sorted(draw(st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=n, max_size=n)))
        streams.append(batch_with_ts(ts, id_start=i * 1000))
    return streams


class TestMergeProperties:
    @given(source_streams())
    @settings(max_examples=60)
    def test_merge_is_sorted_permutation(self, streams):
        merged, source = merge_batches(streams)
        assert merged.is_ts_sorted()
        assert len(merged) == sum(len(s) for s in streams)
        all_ids = sorted(
            int(i) for s in streams for i in s.ids.tolist())
        assert sorted(merged.ids.tolist()) == all_ids

    @given(source_streams(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=60)
    def test_window_sizes_partition_global_window(self, streams, window):
        assume(sum(len(s) for s in streams) >= window)
        bounds = build_workload(streams, window).bounds
        assert np.all(np.diff(bounds, axis=0).sum(axis=1) == window)
        # Cumulative per-source boundaries never exceed stream lengths.
        for i, s in enumerate(streams):
            assert bounds[-1, i] <= len(s)


def merge_oracle(streams, window_size, n_windows):
    """``bounds`` / ``boundary_ts`` read off the materialised stable
    merge: the definition :func:`build_workload` must reproduce."""
    merged, source = merge_batches(streams)
    bounds = np.zeros((n_windows + 1, len(streams)), dtype=np.int64)
    for g in range(n_windows):
        chunk = source[g * window_size:(g + 1) * window_size]
        bounds[g + 1] = bounds[g] + np.bincount(chunk,
                                                minlength=len(streams))
    ends = np.arange(1, n_windows + 1) * window_size
    return bounds, merged.ts[ends - 1].copy()


@st.composite
def tied_streams(draw):
    """1-5 sorted streams, some empty, over so few distinct ticks that
    window edges mostly fall inside runs of tied timestamps."""
    top = draw(st.integers(min_value=0, max_value=6))
    streams = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        ts = sorted(draw(st.lists(st.integers(min_value=0, max_value=top),
                                  max_size=30)))
        streams.append(batch_with_ts(ts, id_start=i * 1000))
    return streams


class TestCountedCutMatchesMerge:
    """The bit-identity contract: counting gives the merge's table."""

    @given(tied_streams(), st.integers(min_value=1, max_value=9),
           st.data())
    @settings(max_examples=300)
    def test_bounds_and_boundary_ts_equal_oracle(self, streams, window,
                                                 data):
        available = sum(len(s) for s in streams) // window
        assume(available >= 1)
        n_windows = data.draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=available)))
        wl = build_workload(streams, window, n_windows)
        bounds, boundary_ts = merge_oracle(streams, window,
                                           wl.n_windows)
        assert wl.n_windows == (available if n_windows is None
                                else n_windows)
        for got, want in ((wl.bounds, bounds),
                          (wl.boundary_ts, boundary_ts)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_generated_streams_equal_oracle(self):
        streams = [RateChangeGenerator(300 + 100 * s, 0.5,
                                       seed=s).generate(2000)
                   for s in range(4)]
        wl = build_workload(streams, 700)
        bounds, boundary_ts = merge_oracle(streams, 700, wl.n_windows)
        assert wl.bounds.tobytes() == bounds.tobytes()
        assert wl.boundary_ts.tobytes() == boundary_ts.tobytes()

    def test_unsorted_stream_rejected_as_merge_does(self):
        streams = [batch_with_ts([1, 2, 3]), batch_with_ts([5, 3])]
        with pytest.raises(StreamError) as merged:
            merge_batches(streams)
        with pytest.raises(StreamError) as built:
            build_workload(streams, 1)
        assert str(built.value) == str(merged.value)
        assert "input batch 1 is not timestamp-sorted" in str(built.value)
