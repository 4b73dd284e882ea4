"""Shared multi-query engine: identity, dedup, admission, heap-driven
emission, and the bit-identity gate against the unshared reference
(``MultiQueryEngine(sharing=False)``).

The engine (``repro.core.multiquery``) must be invisible except for
memory and host wall-clock: for every query population, every
admission point, and every scheme, each query's full result
stream is bit-identical with sharing on (the production path) or
off.  Hypothesis drives populations and admission
points; the scheme-level tests compare full determinism fingerprints.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.determinism import (TimedFingerprint,
                                        check_determinism)
from repro.core.multiquery import MultiQueryEngine
from repro.core.query import Query, parse_query_spec
from repro.core.runner import RunConfig, run_scheme
from repro.errors import ConfigurationError
from repro.obs.tracer import RunTracer
from repro.runtime.api import local_name
from repro.runtime.driver import build_run, run_simulation
from repro.streams.batch import EventBatch
from repro.windows.base import SlidingCountWindow, TumblingCountWindow

#: Everything the runner registers, including the ablation variant.
FINGERPRINT_SCHEMES = ("central", "scotty", "disco", "approx",
                       "deco_mon", "deco_sync", "deco_async",
                       "deco_monlocal")

TINY = dict(n_nodes=2, window_size=800, n_windows=3,
            rate_per_node=20_000.0, rate_change=0.05)

QUERIES = ("sum:500", "avg:300:100", "sum:500", "max:320:80")

STREAM = "local-0"


def value_batch(rng, n, start=0):
    return EventBatch(np.arange(start, start + n),
                      rng.uniform(-1e3, 1e3, n),
                      np.arange(start, start + n))


def feed_engine(specs, chunks, *, sharing, admissions=None):
    """Drive one engine lifetime; returns the engine.

    ``chunks`` is a list of batch sizes; ``admissions`` maps a chunk
    index to extra specs admitted right before that chunk is fed.
    """
    rng = np.random.default_rng(7)
    engine = MultiQueryEngine(sharing=sharing, chunk_size=64)
    for spec in specs:
        engine.admit(STREAM, spec)
    pos = 0
    for i, n in enumerate(chunks):
        for spec in (admissions or {}).get(i, ()):
            engine.admit(STREAM, spec)
        engine.append(STREAM, value_batch(rng, n, start=pos))
        pos += n
    return engine


class TestQueryIdentity:
    def test_content_equality_survives_aggregate_resolution(self):
        # __post_init__ resolves the aggregate name to an instance;
        # equality and hashing are content-derived, so a spec-built
        # query equals a directly-built one.
        a = Query(window=TumblingCountWindow(1000), aggregate="sum")
        b = parse_query_spec("sum:1000")
        assert a == b
        assert hash(a) == hash(b)
        assert a.query_key == b.query_key

    def test_distinct_specs_distinct_keys(self):
        keys = {parse_query_spec(s).query_key
                for s in ("sum:1000", "sum:1001", "avg:1000",
                          "sum:1000:250")}
        assert len(keys) == 4

    def test_non_query_comparison(self):
        assert parse_query_spec("sum:8") != "sum:8"

    def test_labels(self):
        assert parse_query_spec("sum:1000").label == "sum:1000"
        assert parse_query_spec("avg:1000:250").label == "avg:1000:250"

    @pytest.mark.parametrize("bad", ["sum", "sum:0", "sum:abc",
                                     "sum:100:0", "sum:100:200",
                                     ":100", "sum:100:50:2"])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigurationError):
            parse_query_spec(bad)

    def test_parse_shapes(self):
        t = parse_query_spec("sum:100")
        assert isinstance(t.window, TumblingCountWindow)
        s = parse_query_spec("sum:100:25")
        assert isinstance(s.window, SlidingCountWindow)
        assert (s.window.length, s.window.step) == (100, 25)


class TestEngineBasics:
    def test_dedup_shares_one_evaluation(self):
        engine = feed_engine(["sum:96", "sum:96", "avg:96:32"],
                             [256, 256], sharing=True)
        accounts = engine.accounts()
        assert accounts["q1"].deduped_into == "q0"
        assert accounts["q0"].deduped_into is None
        # The duplicate receives every window but pays nothing.
        assert accounts["q1"].windows == accounts["q0"].windows > 0
        assert accounts["q1"].fingerprint == accounts["q0"].fingerprint
        assert accounts["q1"].combines == 0
        assert accounts["q1"].edge_events == 0
        assert accounts["q0"].combines > 0

    def test_unshared_duplicate_pays_full_freight(self):
        engine = feed_engine(["sum:96", "sum:96"], [256, 256],
                             sharing=False)
        accounts = engine.accounts()
        assert accounts["q1"].deduped_into is None
        assert accounts["q1"].combines == accounts["q0"].combines > 0

    def test_forward_only_admission(self):
        engine = feed_engine(["sum:64"], [128], sharing=True)
        with pytest.raises(ConfigurationError, match="forward-only"):
            engine.admit(STREAM, "sum:32", at=4)

    def test_registry_errors(self):
        engine = MultiQueryEngine(sharing=True)
        engine.admit(STREAM, "sum:64")
        with pytest.raises(ConfigurationError, match="unknown query id"):
            engine.account("nope")

    def test_eviction_bounds_retention(self):
        engine = feed_engine(["sum:64:16"], [64] * 32, sharing=True)
        (group,) = engine._groups[STREAM].values()
        # Between reads the store holds at most twice the longest
        # window plus the batch that crossed that bound ...
        assert group.end - group.base <= 2 * 64 + 64
        # ... and a read flushes it down to less than one window.
        assert engine.stats()["groups"][0]["retained"] < 64
        assert not group.pending

    def test_stats_and_repr(self):
        engine = feed_engine(["sum:64", "avg:48:16"], [128],
                             sharing=True)
        assert "MultiQueryEngine" in repr(engine)
        stats = engine.stats()
        assert stats["sharing"] is True
        assert {g["aggregate"] for g in stats["groups"]} == \
            {"sum", "avg"}
        grid = [g for g in stats["groups"]
                if g["aggregate"] == "avg"][0]["slice_grid"]
        assert grid == 16

    def test_head_checks_independent_of_query_count(self):
        """The scaling guard, as a count: a feed examines one heap head
        per window it closes plus one per group, however many queries
        are registered."""
        feeds, batch = 64, 64
        slack = {}
        for n in (100, 2000):
            rng = np.random.default_rng(7)
            engine = MultiQueryEngine(sharing=True, chunk_size=64)
            for i in range(n):
                agg = ("sum", "avg", "max")[i % 3]
                length = 256 + 8 * (i % 97)
                engine.admit(STREAM, f"{agg}:{length}:{length // 2}"
                             if i % 2 else f"{agg}:{length}")
            for k in range(feeds):
                engine.append(STREAM, value_batch(rng, batch,
                                                  start=k * batch))
            stats = engine.stats()
            emitted = sum(a.windows for a in engine.accounts().values()
                          if a.deduped_into is None)
            assert emitted > n
            assert stats["head_checks"] <= \
                emitted + feeds * len(stats["groups"])
            slack[n] = stats["head_checks"] - emitted
        assert slack[100] == slack[2000] == feeds * 3


#: Query populations mixing tumbling/sliding shapes and decomposable/
#: holistic aggregates.
spec_lists = st.lists(
    st.sampled_from(["sum:96", "sum:128:32", "avg:80:16", "max:64",
                     "min:88:24", "count:72:40", "stddev:104:24",
                     "variance:112:48", "median:72:24", "sum:96"]),
    min_size=1, max_size=5)

chunk_lists = st.lists(st.integers(min_value=1, max_value=160),
                       min_size=1, max_size=8)


class TestSharingBitIdentity:
    @given(specs=spec_lists, chunks=chunk_lists)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fingerprints_identical_across_modes(self, specs, chunks):
        shared = feed_engine(specs, chunks, sharing=True)
        unshared = feed_engine(specs, chunks, sharing=False)
        assert shared.fingerprints() == unshared.fingerprints()

    @given(specs=spec_lists, chunks=chunk_lists,
           data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_admission_points_fingerprint_identical(self, specs,
                                                    chunks, data):
        """Admitting queries at arbitrary points mid-feed yields the
        same per-query results in both modes (satellite: admission
        determinism over Hypothesis-chosen admission points)."""
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(chunks) - 1))
        late = data.draw(st.sampled_from(
            ["sum:64", "avg:48:16", "median:56:28"]))
        admissions = {at: [late]}
        shared = feed_engine(specs, chunks, sharing=True,
                             admissions=admissions)
        unshared = feed_engine(specs, chunks, sharing=False,
                               admissions=admissions)
        assert shared.fingerprints() == unshared.fingerprints()
        # The late query saw only forward data.
        late_qid = f"q{len(specs)}"
        assert shared.account(late_qid).from_position == \
            sum(chunks[:at])

    @given(specs=spec_lists, chunks=chunk_lists)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_deferred_flush_is_invisible(self, specs, chunks):
        """Windows are evaluated in deferred flushes, and every read
        flushes first: reading ``stats()`` after every feed and
        reading only at the end give the same accounts and the same
        ``mq_*`` tracer counters."""
        def lifetime(read_every_feed):
            rng = np.random.default_rng(7)
            tracer = RunTracer()
            engine = MultiQueryEngine(chunk_size=64, tracer=tracer)
            for spec in specs:
                engine.admit(STREAM, spec)
            pos = 0
            for n in chunks:
                engine.append(STREAM, value_batch(rng, n, start=pos))
                pos += n
                if read_every_feed:
                    engine.stats()
            # The closing read comes first: tracer counters are
            # complete once a read has flushed.
            accounts = engine.accounts_json()
            return accounts, {key: value
                              for key, value in tracer.counters.items()
                              if key[0].startswith("mq_")}

        eager, deferred = lifetime(True), lifetime(False)
        assert eager == deferred
        shortest = min(int(spec.split(":")[1]) for spec in specs)
        assert any(a["windows"] for a in deferred[0].values()) == \
            (sum(chunks) >= shortest)

#: One engine lifetime as a list of steps, mirrored onto a shared and
#: an unshared engine: feeds of 1..5000 events and admissions from a
#: small spec pool (so identical specs at one position dedupe) at the
#: current position or ahead of it (the evaluation waits in the heap
#: before its first window can close).  The whole pool is admitted at
#: position 0 before the drawn steps run.
lifetime_specs = st.builds(
    lambda aggs, shapes: [f"{aggs[i % len(aggs)]}:{shape}"
                          for i, shape in enumerate(shapes)],
    # One or two aggregates per lifetime, so queries share groups.
    st.lists(st.sampled_from(["sum", "avg", "max", "min", "count",
                              "stddev", "median"]),
             min_size=1, max_size=2),
    st.lists(
        st.builds(
            lambda length, div: f"{length}" if div is None
            else f"{length}:{max(16, length // div)}",
            st.integers(min_value=16, max_value=600),
            st.one_of(st.none(), st.integers(min_value=1, max_value=8))),
        min_size=1, max_size=4))

lifetime_steps = st.lists(
    st.one_of(
        st.tuples(st.just("feed"), st.one_of(
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=1, max_value=5000))),
        st.tuples(st.just("admit"), st.integers(min_value=0, max_value=3),
                  st.sampled_from([0, 0, 37, 700]))),
    min_size=2, max_size=12)


class TestEventDrivenEmission:
    @given(pool=lifetime_specs, steps=lifetime_steps)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shared_lifetime_matches_unshared_oracle(self, pool, steps):
        rng = np.random.default_rng(7)
        shared = MultiQueryEngine(sharing=True, chunk_size=64)
        oracle = MultiQueryEngine(sharing=False, chunk_size=64)
        admitted, pos = [], 0
        everything = [("admit", i, 0) for i in range(len(pool))]
        for step in (*everything, *steps):
            if step[0] == "admit":
                spec = pool[step[1] % len(pool)]
                qid = shared.admit(STREAM, spec, at=pos + step[2])
                assert oracle.admit(STREAM, spec,
                                    at=pos + step[2]) == qid
                admitted.append(spec.split(":")[:2])
            else:
                batch = value_batch(rng, step[1], start=pos)
                pos += step[1]
                shared.append(STREAM, batch)
                oracle.append(STREAM, batch)
                # Eviction keeps up: every evaluation's next window
                # ends past the stream, so no group holds as much as
                # its longest window.
                for group in shared.stats()["groups"]:
                    longest = max(int(length)
                                  for agg, length in admitted
                                  if agg == group["aggregate"])
                    assert group["retained"] < longest
        got, want = shared.accounts(), oracle.accounts()
        assert list(got) == list(want)
        classes = {}
        for qid, acct in got.items():
            ref = want[qid]
            assert (acct.fingerprint, acct.windows, acct.last_result) \
                == (ref.fingerprint, ref.windows, ref.last_result)
            classes.setdefault((acct.query_key, acct.from_position),
                               []).append(qid)
        # A dedup class pays for each window once (its first member
        # owns the evaluation); unshared, every member pays for its
        # own, so any member's bill is the class total.
        for members in classes.values():
            for cost in ("combines", "edge_events"):
                assert sum(getattr(got[q], cost) for q in members) == \
                    max(getattr(want[q], cost) for q in members)


class TestSchemeFingerprints:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_fingerprint_invariant_under_sharing_toggle(self, scheme):
        """The acceptance gate: per-query result streams AND scheme
        results are bit-identical with sharing on or off, for every
        scheme."""
        def fingerprint(sharing):
            config = RunConfig(scheme=scheme, queries=QUERIES, **TINY)
            topo, ctx = build_run(config)
            assert ctx.engine.sharing
            if not sharing:
                # The unshared reference, admitted exactly as
                # make_context admits the shared engine.
                ctx.engine = MultiQueryEngine(sharing=False,
                                              tracer=ctx.tracer)
                for i in range(ctx.n_nodes):
                    for spec in config.queries:
                        ctx.engine.admit(local_name(i), spec, at=0)
            result = run_simulation(
                topo, ctx, config.resolved_batch_size(),
                config.saturated)
            assert result.n_windows == ctx.n_windows
            return TimedFingerprint.of(result)

        on, off = fingerprint(True), fingerprint(False)
        assert on.queries, "no standing-query accounts in fingerprint"
        assert on == off, "\n".join(on.diff(off))

    def test_fingerprint_unchanged_by_queries(self):
        """Standing queries are pure observers: the scheme's own
        windows, emission times, bytes, flows and busy time are
        untouched by admitting them."""
        bare, _ = run_scheme(RunConfig(scheme="deco_sync", **TINY))
        with_q, _ = run_scheme(
            RunConfig(scheme="deco_sync", queries=QUERIES, **TINY))
        assert not bare.queries
        assert set(with_q.queries) == {"q0", "q1", "q2", "q3",
                                       "q4", "q5", "q6", "q7"}
        assert TimedFingerprint.of(bare) == replace(
            TimedFingerprint.of(with_q), queries=())

    def test_config_queries_admission_order(self):
        """Config queries admit stream-major: every local stream gets
        every spec, local-0 first, ids q0, q1, ..."""
        result, _ = run_scheme(
            RunConfig(scheme="central", queries=("sum:500", "avg:300:100"),
                      **TINY))
        accts = result.queries
        assert [a["stream"] for a in accts.values()] == \
            ["local-0", "local-0", "local-1", "local-1"]
        assert list(accts) == ["q0", "q1", "q2", "q3"]
        # The duplicate spec on the second stream is NOT deduped across
        # streams: different stream, different data.
        assert accts["q0"]["fingerprint"] != accts["q2"]["fingerprint"]

    def test_determinism_harness_with_queries(self):
        """Salt-permutation determinism holds with >1 standing query
        (the fingerprint now covers the per-query digests)."""
        fp = check_determinism(
            RunConfig(scheme="deco_async", queries=QUERIES, **TINY))
        assert fp.queries


#: Central with one local's feed running past the stop: its first
#: item after the stop appends events a stop cut off by one item would
#: feed the engine.
STOP_CUT = dict(n_nodes=2, window_size=400, n_windows=4,
                rate_per_node=20_000.0, rate_change=0.2, seed=3)


class TestServeParity:
    @pytest.mark.parametrize("scheme,queries,shape", [
        ("deco_sync", ("sum:500", "avg:300:100"), TINY),
        ("central", ("sum:500", "avg:300:100"), TINY),
        ("central", ("sum:97",), STOP_CUT),
    ], ids=["deco_sync", "central", "central-stop-cut"])
    def test_serve_accounts_match_simulator(self, scheme, queries, shape):
        """Worker-side query accounts merged from FINAL payloads are
        bit-identical to the simulator oracle's — also for a scheme
        (central) whose locals keep ingesting in the epoch the root
        stops in: their feed is cut at the last applied item.  The
        whole run matches too, emission and busy times included."""
        from repro.serve.harness import (run_scheme_served,
                                         verify_against_simulator)
        config = RunConfig(scheme=scheme, queries=queries, **shape)
        sim_result, _ = run_scheme(config)
        report = run_scheme_served(config)
        assert report.result.queries == sim_result.queries
        verify_against_simulator(config, report.result)
