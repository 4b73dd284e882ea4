"""Tests for PositionBuffer, Query, and Workload."""

import numpy as np
import pytest

from repro.aggregates import Average, Sum
from repro.core.buffers import PositionBuffer
from repro.core.query import Query, parse_query_spec, tumbling_count_query
from repro.core.workload import build_workload, generate_workload
from repro.errors import ConfigurationError, WindowError
from repro.streams.batch import EventBatch
from repro.windows.base import SlidingCountWindow


def make_batch(n, start_id=0):
    return EventBatch(np.arange(start_id, start_id + n),
                      np.ones(n), np.arange(start_id, start_id + n))


class TestPositionBuffer:
    def test_append_and_range(self):
        buf = PositionBuffer()
        buf.append(make_batch(5))
        buf.append(make_batch(5, start_id=5))
        assert buf.end == 10
        assert list(buf.get_range(3, 7).ids) == [3, 4, 5, 6]

    def test_base_offset(self):
        buf = PositionBuffer(base=100)
        buf.append(make_batch(10, start_id=100))
        assert list(buf.get_range(105, 107).ids) == [105, 106]

    def test_release_before(self):
        buf = PositionBuffer()
        buf.append(make_batch(10))
        dropped = buf.release_before(4)
        assert dropped == 4
        assert buf.base == 4
        assert buf.retained == 6
        assert list(buf.get_range(4, 6).ids) == [4, 5]

    def test_release_mid_batch(self):
        buf = PositionBuffer()
        buf.append(make_batch(4))
        buf.append(make_batch(4, start_id=4))
        buf.release_before(6)
        assert list(buf.get_range(6, 8).ids) == [6, 7]

    def test_release_is_idempotent_backwards(self):
        buf = PositionBuffer()
        buf.append(make_batch(5))
        buf.release_before(3)
        assert buf.release_before(2) == 0
        assert buf.base == 3

    def test_released_range_rejected(self):
        buf = PositionBuffer()
        buf.append(make_batch(10))
        buf.release_before(5)
        with pytest.raises(WindowError, match="released"):
            buf.get_range(3, 7)

    def test_unavailable_range_rejected(self):
        buf = PositionBuffer()
        buf.append(make_batch(5))
        with pytest.raises(WindowError, match="beyond"):
            buf.get_range(3, 8)

    def test_empty_range(self):
        buf = PositionBuffer()
        buf.append(make_batch(5))
        assert len(buf.get_range(3, 3)) == 0

    def test_has_range(self):
        buf = PositionBuffer()
        buf.append(make_batch(10))
        buf.release_before(2)
        assert buf.has_range(2, 10)
        assert not buf.has_range(1, 5)
        assert not buf.has_range(5, 11)

    def test_empty_appends_ignored(self):
        buf = PositionBuffer()
        buf.append(EventBatch.empty())
        assert buf.retained == 0

    def test_many_release_cycles_compact_dead_prefix(self):
        # Stream through far more batches than the buffer retains; the
        # head cursor plus threshold compaction must keep the batch
        # list bounded and every surviving range addressable.
        buf = PositionBuffer()
        for i in range(400):
            buf.append(make_batch(10, start_id=i * 10))
            if i >= 3:
                buf.release_before((i - 3) * 10)
        assert buf.retained == 40
        assert len(buf._batches) < 100  # dead prefix was compacted
        assert list(buf.get_range(buf.base, buf.base + 5).ids) == \
            list(range(buf.base, buf.base + 5))
        assert list(buf.get_range(buf.end - 5, buf.end).ids) == \
            list(range(buf.end - 5, buf.end))

    def test_release_interleaved_with_mid_batch_queries(self):
        buf = PositionBuffer()
        for i in range(8):
            buf.append(make_batch(7, start_id=i * 7))
        buf.release_before(10)  # mid-batch trim
        assert buf.base == 10
        assert list(buf.get_range(10, 16).ids) == list(range(10, 16))
        buf.release_before(10)  # idempotent
        assert list(buf.get_range(40, 56).ids) == list(range(40, 56))


class TestQuery:
    def test_aggregate_resolved_by_name(self):
        q = tumbling_count_query(100, "avg")
        assert isinstance(q.aggregate, Average)

    def test_aggregate_instance_passthrough(self):
        fn = Sum()
        q = tumbling_count_query(100, fn)
        assert q.aggregate is fn

    def test_window_size(self):
        assert tumbling_count_query(1_000_000).window_size == 1_000_000

    def test_non_count_window_size_rejected(self):
        q = Query(window=SlidingCountWindow(10, 5))
        with pytest.raises(ConfigurationError):
            q.window_size

    @pytest.mark.parametrize("window", [None, 1000, "sum:1000",
                                        (1000, 500)])
    def test_non_count_window_rejected(self, window):
        with pytest.raises(ConfigurationError, match="count window"):
            Query(window=window)

    def test_query_keys_pinned(self):
        # The key hashes the window's class name and fields, so it
        # moves if either count spec is renamed or restructured.
        assert parse_query_spec("sum:1000").query_key == "f52b12f22fb9"
        assert parse_query_spec("avg:700:350").query_key == "cbc0057fd90a"

    def test_decomposable(self):
        assert tumbling_count_query(10, "sum").decomposable
        assert not tumbling_count_query(10, "median").decomposable

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            tumbling_count_query(0)
        with pytest.raises(ConfigurationError):
            tumbling_count_query(10, delta_m=0)
        with pytest.raises(ConfigurationError):
            tumbling_count_query(10, min_delta=-1)


class TestWorkload:
    def test_bounds_partition(self):
        wl = generate_workload(3, 500, 6, rate_per_node=1000,
                               rate_change=0.3, seed=1)
        assert wl.n_nodes == 3
        assert wl.n_windows == 6
        sizes = wl.bounds[1:] - wl.bounds[:-1]
        assert np.all(sizes.sum(axis=1) == 500)
        for g in range(6):
            assert wl.actual_sizes(g).sum() == 500

    def test_span_consistency(self):
        wl = generate_workload(2, 300, 4, rate_per_node=1000, seed=2)
        for g in range(4):
            for a in range(2):
                start, end = wl.span(g, a)
                assert end - start == wl.actual_size(g, a)

    def test_window_events_are_window_size(self):
        wl = generate_workload(2, 400, 3, rate_per_node=1000, seed=3)
        for g in range(3):
            events = wl.window_events(g)
            assert len(events) == 400
            assert events.is_ts_sorted()

    def test_windows_are_ts_contiguous(self):
        wl = generate_workload(2, 400, 3, rate_per_node=1000, seed=3)
        w0, w1 = wl.window_events(0), wl.window_events(1)
        assert w0.last_ts <= w1.first_ts or w0.last_ts == w1.first_ts

    def test_reference_results(self):
        wl = generate_workload(2, 100, 5, rate_per_node=1000, seed=4)
        ref = wl.reference_result(Sum())
        assert len(ref) == 5
        # Every window sums 100 uniform [0,1) values.
        assert all(20 < r < 80 for r in ref)

    def test_boundary_ts_monotonic(self):
        wl = generate_workload(3, 200, 8, rate_per_node=1000, seed=5)
        assert np.all(np.diff(wl.boundary_ts) >= 0)
        assert wl.boundary_seconds(1) >= wl.boundary_seconds(0)

    def test_heterogeneous_rates(self):
        wl = generate_workload(2, 1000, 4, rates=[3000, 1000], seed=6)
        sizes = wl.actual_sizes(0)
        # 3:1 rate split -> roughly 750/250.
        assert abs(sizes[0] - 750) < 30

    def test_total_events(self):
        wl = generate_workload(1, 50, 4, rate_per_node=1000)
        assert wl.total_events == 200

    def test_insufficient_stream_rejected(self):
        streams = [make_batch(10)]
        with pytest.raises(ConfigurationError, match="complete windows"):
            build_workload(streams, 100, 1)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            build_workload([], 10)
        with pytest.raises(ConfigurationError):
            build_workload([make_batch(10)], 0)
        with pytest.raises(ConfigurationError):
            generate_workload(0, 10, 1)
        with pytest.raises(ConfigurationError):
            generate_workload(2, 10, 1, rates=[1.0])

    @pytest.mark.parametrize("args, kwargs", [
        ((0, 10, 1), {}),
        ((2, 0, 1), {}),
        ((2, 10, 0), {}),
        ((2, 10, 1), {"rate_per_node": 0}),
    ], ids=["nodes", "window", "windows", "rate"])
    def test_bad_inputs_raise_configuration_error(self, args, kwargs):
        with pytest.raises(ConfigurationError):
            generate_workload(*args, **kwargs)

    def test_deterministic(self):
        a = generate_workload(2, 100, 3, rate_per_node=1000, seed=9)
        b = generate_workload(2, 100, 3, rate_per_node=1000, seed=9)
        assert np.array_equal(a.bounds, b.bounds)
        assert all(x == y
                   for x, y in zip(a.streams, b.streams, strict=True))
