"""Range-aggregation index: property tests and the bit-identity gate.

The index (``repro.core.agg_index``) must be invisible except for host
wall-clock: for every registered aggregate, every append/release/query
interleaving, and every scheme, results are bit-identical with partial
caching on (the production path) or off (``use_index=False``, the
uncached reference).  Hypothesis drives the interleavings; the
scheme-level test compares full determinism fingerprints.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.aggregates import available_aggregates, get_aggregate
from repro.analysis.determinism import Fingerprint
from repro.core.agg_index import RangeAggregateIndex, decomposition_width
from repro.core.buffers import PositionBuffer
from repro.core.context import SchemeContext
from repro.core.runner import RunConfig
from repro.errors import ConfigurationError, WindowError
from repro.runtime.driver import build_run, run_simulation
from repro.streams.batch import EventBatch

#: Every registered aggregate plus a parameterized quantile; holistic
#: entries exercise the non-decomposable fallback path.
AGGREGATE_NAMES = (*available_aggregates(), "quantile(0.9)")

#: Small chunk so modest streams span several tree levels.
CHUNK = 16


def value_batch(rng, n, start=0):
    return EventBatch(np.arange(start, start + n),
                      rng.uniform(-1e3, 1e3, n),
                      np.arange(start, start + n))


def bits(partial):
    """A bit-exact, hashable signature of an opaque partial."""
    if isinstance(partial, float):
        return partial.hex()
    if isinstance(partial, tuple):
        return tuple(bits(p) for p in partial)
    if isinstance(partial, np.ndarray):
        return (partial.dtype.str, partial.shape, partial.tobytes())
    return partial


@st.composite
def buffer_scripts(draw):
    """A random append / release_before / lift_range interleaving.

    Returns ``(seed, ops)`` where ops mix ``("append", n)``,
    ``("release", fraction)`` and ``("query", f0, f1)``; fractions are
    resolved against the live buffer span at execution time so every
    query is in range by construction.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["append", "query", "query",
                                     "release"]))
        if kind == "append":
            ops.append(("append", draw(st.integers(min_value=1,
                                                   max_value=200))))
        elif kind == "release":
            ops.append(("release", draw(st.floats(min_value=0.0,
                                                  max_value=1.0))))
        else:
            f0 = draw(st.floats(min_value=0.0, max_value=1.0))
            f1 = draw(st.floats(min_value=0.0, max_value=1.0))
            ops.append(("query", min(f0, f1), max(f0, f1)))
    return seed, ops


def run_script(buf, seed, ops):
    """Execute one script; returns the queried partials in order."""
    rng = np.random.default_rng(seed)
    partials = []
    for op in ops:
        if op[0] == "append":
            buf.append(value_batch(rng, op[1], start=buf.end))
        elif op[0] == "release":
            span = buf.end - buf.base
            buf.release_before(buf.base + int(op[1] * span))
        else:
            base, span = buf.base, buf.end - buf.base
            start = base + int(op[1] * span)
            end = base + int(op[2] * span)
            if end > start:
                partials.append(((start, end),
                                 buf.lift_range(start, end)))
    return partials


PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestIndexedLiftProperty:
    @pytest.mark.parametrize("name", AGGREGATE_NAMES)
    @PROPERTY
    @given(script=buffer_scripts())
    def test_on_off_bit_identity_and_oracle(self, name, script):
        """Indexed lifts equal the cache-off run bit-for-bit — with or
        without the edge memo and its chunk-resident blocks — and the
        per-event ``scalar_lift`` oracle within 1e-9."""
        seed, ops = script
        fn = get_aggregate(name)
        on = PositionBuffer(fn=fn, use_index=True, chunk_size=CHUNK)
        off = PositionBuffer(fn=fn, use_index=False, chunk_size=CHUNK)
        memo = PositionBuffer(fn=fn, use_index=True, chunk_size=CHUNK,
                              edge_memo=True)
        oracle = PositionBuffer(fn=fn)  # raw events for scalar_lift
        got_on = run_script(on, seed, ops)
        got_off = run_script(off, seed, ops)
        assert [(r, bits(p)) for r, p in got_on] == \
            [(r, bits(p)) for r, p in got_off]
        assert [(r, bits(p)) for r, p in run_script(memo, seed, ops)] \
            == [(r, bits(p)) for r, p in got_off]
        run_script(oracle, seed, [op for op in ops
                                  if op[0] != "release"])
        for (start, end), partial in got_on:
            want = fn.lower(fn.scalar_lift(oracle.get_range(start, end)))
            got = fn.lower(partial)
            if name in ("count", "min", "max"):
                assert got == want
            else:
                assert math.isclose(got, want, rel_tol=1e-9,
                                    abs_tol=1e-7)

    @PROPERTY
    @given(script=buffer_scripts())
    def test_count_exact_under_interleaving(self, script):
        seed, ops = script
        buf = PositionBuffer(fn=get_aggregate("count"),
                             use_index=True, chunk_size=CHUNK)
        for (start, end), partial in run_script(buf, seed, ops):
            assert partial == float(end - start)


class TestIndexMechanics:
    def test_chunk_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            RangeAggregateIndex(get_aggregate("sum"),
                                lambda s, e: EventBatch.empty(),
                                chunk_size=48)

    def test_cache_hits_on_repeated_queries(self):
        rng = np.random.default_rng(0)
        buf = PositionBuffer(fn=get_aggregate("sum"), use_index=True,
                             chunk_size=CHUNK)
        buf.append(value_batch(rng, 40 * CHUNK))
        buf.lift_range(0, 40 * CHUNK)
        index = buf.index
        assert index.cache_misses == 0
        hits = index.cache_hits
        assert hits > 0
        buf.lift_range(0, 40 * CHUNK)
        assert index.cache_hits == 2 * hits

    def test_release_evicts_and_bounds_cache(self):
        rng = np.random.default_rng(1)
        buf = PositionBuffer(fn=get_aggregate("sum"), use_index=True,
                             chunk_size=CHUNK)
        buf.append(value_batch(rng, 64 * CHUNK))
        buf.lift_range(0, 64 * CHUNK)
        before = buf.index.nodes_cached
        buf.release_before(60 * CHUNK)
        assert buf.index.nodes_evicted > 0
        assert buf.index.nodes_cached < before
        with pytest.raises(WindowError):
            buf.lift_range(0, 64 * CHUNK)  # head was released
        # The live suffix still answers, bit-identical to a fresh lift.
        live = buf.lift_range(60 * CHUNK, 64 * CHUNK)
        fresh = PositionBuffer(fn=get_aggregate("sum"),
                               use_index=False, chunk_size=CHUNK,
                               base=60 * CHUNK)
        fresh.append(buf.get_range(60 * CHUNK, 64 * CHUNK))
        assert bits(live) == bits(fresh.lift_range(60 * CHUNK,
                                                   64 * CHUNK))

    def test_edge_memo_blocks_and_per_chunk_eviction(self):
        rng = np.random.default_rng(4)
        fn = get_aggregate("sum")
        plain = PositionBuffer(fn=fn, use_index=True, chunk_size=CHUNK)
        memo = PositionBuffer(fn=fn, use_index=True, chunk_size=CHUNK,
                              edge_memo=True)
        for n in (7, 3 * CHUNK, 11):  # no-, multi- and one-leaf appends
            batch = value_batch(rng, n, start=plain.end)
            plain.append(batch)
            memo.append(batch)
        # Only an index with an edge memo keeps the leaf blocks.
        assert plain.index._blocks == {}
        assert sorted(memo.index._blocks) == [0, 1, 2, 3]
        start, end = 5, 4 * CHUNK + 1
        for buf in (plain, memo):
            assert bits(buf.lift_range(start, end)) == \
                bits(plain.lift_range(start, end))
            assert buf.index.last_width == \
                decomposition_width(start, end, CHUNK)
            assert buf.index.last_edge_events == (CHUNK - 5) + 1
        # Head from chunk 0's block, tail from the incomplete chunk 4.
        assert (memo.index.edge_misses, memo.index.edge_hits) == (2, 0)
        memo.lift_range(start, end)
        assert (memo.index.edge_misses, memo.index.edge_hits) == (2, 2)
        assert memo.index.edges_cached == 2
        # A partly released chunk still serves the remainders past the
        # release point; chunks wholly before it take memo and block
        # with them.
        memo.release_before(CHUNK + 3)
        assert sorted(memo.index._blocks) == [1, 2, 3]
        assert memo.index.edges_cached == 1
        assert bits(memo.lift_range(CHUNK + 5, 2 * CHUNK)) == \
            bits(fn.lift(plain.get_range(CHUNK + 5, 2 * CHUNK)))

    def test_holistic_functions_bypass_the_index(self):
        buf = PositionBuffer(fn=get_aggregate("median"))
        assert buf.index is None
        rng = np.random.default_rng(2)
        buf.append(value_batch(rng, 100))
        fn = buf.fn
        assert fn.lower(buf.lift_range(10, 90)) == \
            fn.lower(fn.lift(buf.get_range(10, 90)))

    def test_lift_range_requires_bound_fn(self):
        buf = PositionBuffer()
        buf.append(value_batch(np.random.default_rng(3), 10))
        with pytest.raises(WindowError):
            buf.lift_range(0, 10)


class TestZeroCopyPaths:
    def test_get_range_within_one_batch_is_a_view(self):
        rng = np.random.default_rng(4)
        buf = PositionBuffer()
        batch = value_batch(rng, 100)
        buf.append(batch)
        view = buf.get_range(10, 60)
        assert np.shares_memory(view.values, batch.values)

    def test_concat_single_batch_is_identity(self):
        batch = value_batch(np.random.default_rng(5), 8)
        assert EventBatch.concat([batch]) is batch

    def test_take_drop_slice_identities(self):
        batch = value_batch(np.random.default_rng(6), 8)
        assert batch.take(8) is batch
        assert batch.take(99) is batch
        assert batch.drop(0) is batch
        assert batch.slice_range(0, 8) is batch
        assert EventBatch.empty() is EventBatch.empty()

    def test_fast_paths_preserve_semantics(self):
        batch = value_batch(np.random.default_rng(7), 8)
        head, tail = batch.split(3)
        assert list(head.ids) == list(batch.ids[:3])
        assert list(tail.ids) == list(batch.ids[3:])
        assert len(batch.take(0)) == 0
        assert batch.drop(8) == EventBatch.empty()


#: Everything the runner registers, including the ablation variant.
FINGERPRINT_SCHEMES = ("central", "scotty", "disco", "approx",
                       "deco_mon", "deco_sync", "deco_async",
                       "deco_monlocal")

TINY = dict(n_nodes=2, window_size=800, n_windows=3,
            rate_per_node=20_000.0, rate_change=0.05)


class TestSchemeBitIdentity:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_fingerprint_invariant_under_index_toggle(self, scheme,
                                                      monkeypatch):
        """The acceptance gate: window results, spans, flows, bytes and
        message counts are bit-identical with the index on or off."""
        uncached = []

        def reference_buffer(self, fn=None, base=0):
            buf = PositionBuffer(base, fn, use_index=False)
            uncached.append(buf)
            return buf

        def fingerprint():
            config = RunConfig(scheme=scheme, **TINY)
            topo, ctx = build_run(config)
            result = run_simulation(
                topo, ctx, config.resolved_batch_size(),
                config.saturated)
            assert result.n_windows == ctx.n_windows
            return Fingerprint.of(result)

        on = fingerprint()
        # Every scheme buffer is built through this one point.
        monkeypatch.setattr(SchemeContext, "new_buffer",
                            reference_buffer)
        off = fingerprint()
        assert uncached and not any(
            buf.index is not None and buf.index.caching
            for buf in uncached)
        assert on == off, "\n".join(on.diff(off))
