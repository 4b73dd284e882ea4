"""Unit and property tests for the aggregation substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import (AggregateFunction, Average, Count,
                              Decomposability, GrayKind, Max, Median, Min,
                              Quantile, StdDev, Sum, Variance,
                              available_aggregates, get_aggregate)
from repro.aggregates.base import equal_width_rows
from repro.core.agg_index import DEFAULT_CHUNK_SIZE
from repro.errors import AggregationError
from repro.streams.batch import EventBatch


def value_batch(values):
    values = np.asarray(values, dtype=float)
    return EventBatch(np.arange(len(values)), values,
                      np.arange(len(values)))


ALL_FUNCTIONS = [Sum(), Count(), Min(), Max(), Average(), Variance(),
                 StdDev(), Median(), Quantile(0.25)]
DECOMPOSABLE = [f for f in ALL_FUNCTIONS if f.is_decomposable]


class TestClassification:
    def test_gray_kinds(self):
        assert Sum().gray_kind is GrayKind.DISTRIBUTIVE
        assert Average().gray_kind is GrayKind.ALGEBRAIC
        assert Median().gray_kind is GrayKind.HOLISTIC

    def test_decomposability(self):
        assert Sum().is_decomposable
        assert Average().is_decomposable
        assert not Median().is_decomposable
        assert Median().decomposability is Decomposability.NON_DECOMPOSABLE


class TestDistributive:
    def test_sum(self):
        assert Sum().aggregate(value_batch([1, 2, 3.5])) == 6.5

    def test_count(self):
        assert Count().aggregate(value_batch([5, 5, 5, 5])) == 4.0

    def test_min_max(self):
        b = value_batch([3, -1, 7])
        assert Min().aggregate(b) == -1
        assert Max().aggregate(b) == 7

    def test_identities(self):
        assert Sum().identity() == 0.0
        assert Count().identity() == 0
        assert Min().identity() == math.inf
        assert Max().identity() == -math.inf

    def test_empty_batch(self):
        empty = EventBatch.empty()
        assert Sum().lift(empty) == 0.0
        assert Min().lift(empty) == math.inf
        assert Max().lift(empty) == -math.inf


class TestAlgebraic:
    def test_average(self):
        assert Average().aggregate(value_batch([2, 4, 6])) == 4.0

    def test_average_empty_is_nan(self):
        assert math.isnan(Average().lower(Average().identity()))

    def test_variance_matches_numpy(self):
        values = [1.0, 2.0, 2.0, 3.0, 9.0]
        assert Variance().aggregate(value_batch(values)) == pytest.approx(
            np.var(values))

    def test_stddev_matches_numpy(self):
        values = [1.0, 5.0, 5.0, 8.0]
        assert StdDev().aggregate(value_batch(values)) == pytest.approx(
            np.std(values))

    def test_variance_combine_identity(self):
        v = Variance()
        p = v.lift(value_batch([1, 2, 3]))
        assert v.combine(v.identity(), p) == p
        assert v.combine(p, v.identity()) == p


class TestHolistic:
    def test_median(self):
        assert Median().aggregate(value_batch([5, 1, 3])) == 3.0

    def test_quantile(self):
        b = value_batch(list(range(101)))
        assert Quantile(0.9).aggregate(b) == pytest.approx(90.0)

    def test_quantile_bounds_checked(self):
        with pytest.raises(AggregationError):
            Quantile(1.5)

    def test_empty_is_nan(self):
        assert math.isnan(Median().lower(Median().identity()))


class TestRegistry:
    def test_lookup_all(self):
        for name in available_aggregates():
            assert isinstance(get_aggregate(name), AggregateFunction)

    def test_quantile_spec(self):
        fn = get_aggregate("quantile(0.75)")
        assert isinstance(fn, Quantile)
        assert fn.q == 0.75

    def test_malformed_quantile(self):
        with pytest.raises(AggregationError):
            get_aggregate("quantile(abc)")

    def test_unknown_name(self):
        with pytest.raises(AggregationError, match="unknown aggregate"):
            get_aggregate("frobnicate")


values_lists = st.lists(
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    min_size=1, max_size=60)


class TestDecompositionProperties:
    """Invariant 5 of DESIGN.md: lift/combine/lower == direct aggregate
    for every partition of the input."""

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS, ids=lambda f: f.name)
    @given(values=values_lists, cut=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_split_invariance(self, fn, values, cut):
        cut = min(cut, len(values))
        whole = value_batch(values)
        left, right = value_batch(values[:cut]), value_batch(values[cut:])
        combined = fn.combine(fn.lift(left), fn.lift(right))
        direct = fn.aggregate(whole)
        assert fn.lower(combined) == pytest.approx(direct, rel=1e-9,
                                                   abs=1e-9)

    @pytest.mark.parametrize("fn", DECOMPOSABLE, ids=lambda f: f.name)
    @given(values=values_lists)
    @settings(max_examples=30, deadline=None)
    def test_combine_with_identity_is_noop(self, fn, values):
        partial = fn.lift(value_batch(values))
        with_left = fn.combine(fn.identity(), partial)
        with_right = fn.combine(partial, fn.identity())
        assert fn.lower(with_left) == pytest.approx(fn.lower(partial),
                                                    rel=1e-9, abs=1e-9)
        assert fn.lower(with_right) == pytest.approx(fn.lower(partial),
                                                     rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("fn", DECOMPOSABLE, ids=lambda f: f.name)
    @given(values=values_lists, n_parts=st.integers(min_value=1,
                                                    max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_many_way_split(self, fn, values, n_parts):
        whole = value_batch(values)
        size = max(1, len(values) // n_parts)
        parts = [value_batch(values[i:i + size])
                 for i in range(0, len(values), size)]
        combined = fn.combine_all(fn.lift(p) for p in parts)
        assert fn.lower(combined) == pytest.approx(
            fn.aggregate(whole), rel=1e-9, abs=1e-9)


@st.composite
def range_lists(draw):
    """Arbitrary disjoint in-order [start, end) ranges over a batch."""
    n_ranges = draw(st.integers(min_value=1, max_value=6))
    widths = draw(st.lists(st.integers(min_value=0, max_value=8),
                           min_size=n_ranges, max_size=n_ranges))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=n_ranges, max_size=n_ranges))
    starts, ends = [], []
    at = 0
    for width, gap in zip(widths, gaps):
        at += gap
        starts.append(at)
        ends.append(at + width)
        at += width
    return starts, ends


class TestLiftRanges:
    """The vectorized kernel contract: ``lift_ranges`` must be
    bit-identical to the per-range scalar ``lift`` oracle, for every
    aggregate and every range geometry (equal-width contiguous blocks
    hit the reshaped fast path; ragged or gapped ranges fall back)."""

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS, ids=lambda f: f.name)
    @given(values=values_lists, ranges=range_lists())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_lift_oracle(self, fn, values, ranges):
        starts, ends = ranges
        total = max(ends) if ends else 0
        if len(values) < total:
            values = (values * (total // len(values) + 1))[:total]
        batch = value_batch(values)
        oracle = [fn.lift(batch.slice_range(s, e))
                  for s, e in zip(starts, ends)]
        vectorized = fn.lift_ranges(batch, starts, ends)
        assert partial_key(vectorized) == partial_key(oracle)

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS, ids=lambda f: f.name)
    def test_equal_width_contiguous_fast_path(self, fn):
        rng = np.random.default_rng(3)
        batch = value_batch(rng.uniform(-1e3, 1e3, 64))
        starts = [i * 8 for i in range(8)]
        ends = [(i + 1) * 8 for i in range(8)]
        assert equal_width_rows(batch, starts, ends) is not None
        oracle = [fn.lift(batch.slice_range(s, e))
                  for s, e in zip(starts, ends)]
        assert partial_key(fn.lift_ranges(batch, starts, ends)) == \
            partial_key(oracle)

    def test_rows_helper_rejects_ragged_and_gapped(self):
        batch = value_batch(np.arange(20.0))
        assert equal_width_rows(batch, [0, 5], [5, 12]) is None   # ragged
        assert equal_width_rows(batch, [0, 6], [5, 11]) is None   # gapped
        assert equal_width_rows(batch, [0, 5], [0, 5]) is None    # empty
        assert equal_width_rows(batch, [], []) is None
        rows = equal_width_rows(batch, [0, 5, 10], [5, 10, 15])
        assert rows is not None and rows.shape == (3, 5)
        assert np.shares_memory(rows, batch.values)


#: Values a kernel must treat exactly as the scalar path does.
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf)


@st.composite
def value_rows(draw):
    """An ``(n, width)`` value block, width 1 to two index chunks:
    uniform values, a tie-heavy mix of +-0.0 and +-1.0, or signed
    zeros only, with +-0.0 and +-inf sprinkled in."""
    n = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1,
                             max_value=2 * DEFAULT_CHUNK_SIZE))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2**16)))
    pool = draw(st.sampled_from([None, (0.0, -0.0, 1.0, -1.0),
                                 (0.0, -0.0)]))
    rows = (rng.uniform(-1e3, 1e3, (n, width)) if pool is None
            else rng.choice(np.array(pool), (n, width)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        rows[draw(st.integers(min_value=0, max_value=n - 1)),
             draw(st.integers(min_value=0, max_value=width - 1))] = \
            draw(st.sampled_from(SPECIAL_VALUES))
    return rows


def to_columns(fn, partials):
    """Scalar partials as the kernel's columns (inverse of
    ``fn.partials``)."""
    fields = ([partials] if fn.partial_type is None
              else [list(f) for f in zip(*partials)])
    return tuple(np.array(f) for f in fields)


class TestColumnarKernels:
    """Each decomposable aggregate's columnar kernel is its scalar
    ``lift`` / ``combine`` / ``lower`` bit for bit — the contract the
    multi-query engine's flush rests on."""

    # inf - inf is NaN on both paths; numpy warns about it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fn", DECOMPOSABLE, ids=lambda f: f.name)
    @given(left=value_rows(), right=value_rows(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_scalar_path(self, fn, left, right, data):
        n = min(len(left), len(right))
        lifted = [fn.partials(fn.lift_rows(np.ascontiguousarray(rows[:n])))
                  for rows in (left, right)]
        for rows, got in zip((left, right), lifted):
            assert partial_key(got) == partial_key(
                [fn.lift(value_batch(row)) for row in rows[:n]])
        # An identity partial on either side takes combine's
        # empty-side branch.
        empty = data.draw(st.lists(st.integers(min_value=0,
                                               max_value=2 * n - 1),
                                   max_size=2))
        for k in empty:
            lifted[k // n][k % n] = fn.identity()
        a, b = lifted
        combined = fn.combine_columns(to_columns(fn, a),
                                      to_columns(fn, b))
        want = [fn.combine(x, y) for x, y in zip(a, b)]
        assert partial_key(fn.partials(combined)) == partial_key(want)
        assert partial_key(fn.lower_columns(combined).tolist()) == \
            partial_key([float(fn.lower(p)) for p in want])


def partial_key(partials):
    """Bit-exact comparison key for a list of lifted partials."""
    out = []
    for p in partials:
        if isinstance(p, np.ndarray):
            out.append((str(p.dtype), p.tobytes()))
        elif isinstance(p, float):
            out.append(np.float64(p).tobytes())
        elif isinstance(p, tuple):
            out.append((type(p).__name__, partial_key(list(p))))
        else:
            out.append(p)
    return out
