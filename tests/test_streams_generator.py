"""Tests for the synthetic stream generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, StreamError
from repro.streams.event import TICKS_PER_SECOND
from repro.streams.generator import (GaussianValues, RateChangeGenerator,
                                     UniformValues, replayed_offsets)


class TestRateChangeGenerator:
    def test_sequential_ids(self):
        gen = RateChangeGenerator(1000, 0.0, seed=1)
        a = gen.generate(100)
        b = gen.generate(50)
        assert list(a.ids) == list(range(100))
        assert list(b.ids) == list(range(100, 150))

    def test_monotonic_timestamps_across_calls(self):
        gen = RateChangeGenerator(500, 0.5, seed=2)
        a = gen.generate(300)
        b = gen.generate(300)
        ts = np.concatenate([a.ts, b.ts])
        assert np.all(np.diff(ts) >= 0)

    def test_constant_rate_spacing(self):
        gen = RateChangeGenerator(100, 0.0, seed=0)
        batch = gen.generate(100)  # exactly one epoch at 100 ev/s
        spacing = np.diff(batch.ts)
        assert np.all(np.abs(spacing - TICKS_PER_SECOND / 100) <= 1)

    def test_rate_change_bounds(self):
        # With 5% change the per-second event count must stay in [95, 105].
        gen = RateChangeGenerator(100, 0.05, seed=3)
        batch = gen.generate_seconds(50)
        seconds = batch.ts // TICKS_PER_SECOND
        counts = np.bincount(seconds)
        assert counts.min() >= 95
        assert counts.max() <= 105

    def test_zero_change_stable_rate(self):
        gen = RateChangeGenerator(200, 0.0, seed=4)
        batch = gen.generate_seconds(10)
        counts = np.bincount(batch.ts // TICKS_PER_SECOND)
        assert np.all(counts == 200)

    def test_determinism(self):
        a = RateChangeGenerator(100, 0.3, seed=7).generate(500)
        b = RateChangeGenerator(100, 0.3, seed=7).generate(500)
        assert a == b

    def test_different_seeds_differ(self):
        a = RateChangeGenerator(100, 0.3, seed=1).generate(500)
        b = RateChangeGenerator(100, 0.3, seed=2).generate(500)
        assert a != b

    def test_generate_zero(self):
        assert len(RateChangeGenerator(100).generate(0)) == 0

    def test_generate_seconds_counts(self):
        gen = RateChangeGenerator(1000, 0.0, seed=0)
        batch = gen.generate_seconds(3.0)
        assert len(batch) == 3000

    def test_generate_seconds_then_generate_no_overlap(self):
        gen = RateChangeGenerator(100, 0.0, seed=0)
        a = gen.generate_seconds(1.0)
        b = gen.generate(10)
        assert b.first_ts >= a.last_ts

    @pytest.mark.parametrize("kwargs", [
        {"base_rate": 0},
        {"base_rate": -5},
        {"base_rate": 10, "change_fraction": 1.5},
        {"base_rate": 10, "change_fraction": -0.1},
        {"base_rate": 10, "epoch_seconds": 0},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            RateChangeGenerator(**kwargs)

    def test_negative_n_events(self):
        with pytest.raises(ConfigurationError):
            RateChangeGenerator(10).generate(-1)


class TestValueSources:
    def test_uniform_bounds(self):
        vals = UniformValues(2.0, 4.0).values(1000,
                                              np.random.default_rng(0))
        assert vals.min() >= 2.0
        assert vals.max() < 4.0

    def test_uniform_invalid(self):
        with pytest.raises(ConfigurationError):
            UniformValues(4.0, 2.0)

    def test_gaussian_moments(self):
        vals = GaussianValues(10.0, 2.0).values(20_000,
                                                np.random.default_rng(0))
        assert vals.mean() == pytest.approx(10.0, abs=0.1)
        assert vals.std() == pytest.approx(2.0, abs=0.1)

    def test_gaussian_invalid(self):
        with pytest.raises(ConfigurationError):
            GaussianValues(0.0, -1.0)

    @settings(max_examples=100, deadline=None)
    @given(source=st.sampled_from([UniformValues(), UniformValues(-3.0, 7.5),
                                   GaussianValues(),
                                   GaussianValues(10.0, 2.0)]),
           seed=st.integers(0, 2**32 - 1),
           chunks=st.lists(st.integers(0, 300), max_size=8))
    def test_chunked_draws_equal_one_draw(self, source, seed, chunks):
        """Spills draw a stream's values epoch by epoch; for the
        built-in sources that gives the bits of one whole draw."""
        whole = source.values(sum(chunks), np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        parts = [source.values(n, rng) for n in chunks]
        assert np.concatenate([whole[:0], *parts]).tobytes() == \
            whole.tobytes()


class TestEpochPlan:
    @pytest.mark.parametrize("change, epoch_seconds, seconds", [
        (0.0, 1.0, 3.0), (0.3, 0.25, 2.6), (0.05, 1.7, 5.0)])
    def test_plan_rebuilds_generate_seconds(self, change, epoch_seconds,
                                            seconds):
        """The plan's epochs hold exactly ``generate_seconds``'s
        timestamps and ids, and its values are the next draw."""
        whole = RateChangeGenerator(
            900, change, epoch_seconds=epoch_seconds,
            seed=5).generate_seconds(seconds)
        gen = RateChangeGenerator(900, change, epoch_seconds=epoch_seconds,
                                  seed=5)
        plan = gen.plan_seconds(seconds)
        assert plan.n_events == len(whole)
        split = len(plan) // 2
        for column, part in (("ts", plan.ts), ("ids", plan.ids)):
            pieces = [part(0, split), part(split, len(plan))] if split \
                else [part(0, len(plan))]
            assert np.concatenate(pieces).tobytes() == \
                getattr(whole, column).tobytes()
        assert gen.draw_values(plan.n_events).tobytes() == \
            whole.values.tobytes()

    def test_plan_needs_an_epoch_boundary(self):
        gen = RateChangeGenerator(100, seed=0)
        gen.generate(10)
        with pytest.raises(StreamError, match="epoch boundary"):
            gen.plan_seconds(1.0)


class TestReplayedOffsets:
    def test_distinct(self):
        offsets = replayed_offsets(8, 1000, seed=1)
        assert len(set(offsets.tolist())) == 8
        assert offsets.max() < 1000

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            replayed_offsets(0, 100)
        with pytest.raises(ConfigurationError):
            replayed_offsets(10, 5)
