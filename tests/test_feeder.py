"""Paced source injection: the lazy per-client feeder.

``inject_stream`` used to slice, wrap and schedule a paced node's whole
stream up front (one kernel timer per batch); it now holds one pending
timer per source client that re-arms itself from inside the firing
callback.  The eager loop survives here, as the reference the property
test compares the lazy chain against, and the count guards pin the
O(clients) timer population exactly so they cannot flake.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401  (registers baselines)
import repro.core  # noqa: F401  (registers deco_* schemes)
from repro.core.protocol import SourceBatch
from repro.core.runner import RunConfig, available_schemes, run_scheme
from repro.runtime import driver
from repro.runtime.api import PHASE_SOURCE
from repro.runtime.feeder import inject_stream
from repro.runtime.node import INTEL_XEON, RuntimeNode
from repro.serve.worker import WorkerRuntime
from repro.sim.kernel import Simulator
from repro.streams.batch import EventBatch
from repro.streams.event import ticks_to_seconds


def eager_inject(node, stream, batch_size, sender, sources):
    """The deleted pre-scheduling loops, verbatim: every batch of every
    client sliced, wrapped and scheduled before the run starts."""
    if sources == 1:
        clients = [(stream, sender, ())]
    else:
        clients = [(stream[k::sources], f"{sender}.{k}",
                    (f"{sender}.{k}",)) for k in range(sources)]
    for substream, client, rank in clients:
        for start in range(0, len(substream), batch_size):
            batch = substream.slice_range(
                start, min(start + batch_size, len(substream)))
            msg = SourceBatch(sender=client, events=batch)
            node.schedule_at(ticks_to_seconds(batch.last_ts),
                             lambda n=node, m=msg: n.deliver(m),
                             phase=PHASE_SOURCE, rank=rank)


class Recorder:
    """Behaviour that logs every delivery the node accepts."""

    def __init__(self):
        self.seen = []

    def on_start(self, node):
        pass

    def service_time(self, node, msg):
        # Called from deliver(), so a crashed node logs nothing.
        self.seen.append((node.now, msg.sender,
                          int(msg.events.ids[0]),
                          int(msg.events.ids[-1])))
        return 0.0

    def on_message(self, node, msg):
        pass


def deliveries(inject, salt, crash):
    """Run one recording node to quiescence; ``crash`` is an optional
    ``(down_at, up_at)`` window in seconds."""
    sim = Simulator(tiebreak_salt=salt)
    recorder = Recorder()
    node = RuntimeNode(sim, "local-0", INTEL_XEON, recorder)
    inject(node)
    if crash is not None:
        # Ranked, so a zero-length window is crash-then-recover under
        # any salt.
        sim.schedule_at(crash[0], node.crash, rank=("0-crash",))
        sim.schedule_at(crash[1], node.recover, rank=("1-recover",))
    sim.run()
    assert sim.pending() == 0
    return recorder.seen


@st.composite
def tick_streams(draw):
    """Non-decreasing timestamp streams with many duplicate ticks."""
    gaps = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=1, max_size=200))
    ts = np.cumsum(gaps)
    n = len(ts)
    return EventBatch(np.arange(n), np.ones(n), ts)


class TestLazyEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(stream=tick_streams(),
           batch_size=st.integers(min_value=1, max_value=64),
           sources=st.integers(min_value=1, max_value=4),
           salt=st.sampled_from([0, 5]),
           crash=st.one_of(st.none(), st.tuples(
               st.floats(min_value=0.0, max_value=0.5),
               st.floats(min_value=0.0, max_value=0.5))))
    def test_same_delivery_sequence(self, stream, batch_size, sources,
                                    salt, crash):
        """``(time, sender, first id, last id)`` of every accepted
        delivery equals the eager schedule's, under either salt and
        across a crash/recover window.

        The reference runs unsalted: the eager loop gave two same-tick
        batches of one client an equal ``(time, phase, rank)`` key, so
        a salt could swap them; the chain has one pending batch per
        client and always delivers a client's stream in order — the
        canonical order the unsalted eager schedule produced.
        """
        if crash is not None:
            # Place the window inside the stream's own time span.
            span = ticks_to_seconds(int(stream.ts[-1]))
            lo, hi = sorted(crash)
            crash = (lo * span, lo * span + hi * span)
        expected = deliveries(
            lambda node: eager_inject(node, stream, batch_size,
                                      "source-0", sources),
            0, crash)
        got = deliveries(
            lambda node: inject_stream(node, stream, batch_size, False,
                                       "source-0", sources),
            salt, crash)
        assert got == expected

    def test_feeds_on_through_a_crash(self):
        # Ten one-event batches, one per tick; the node is down for
        # ticks 3..6 and must see exactly the others.
        stream = EventBatch(np.arange(10), np.ones(10), np.arange(10))
        t = ticks_to_seconds
        seen = deliveries(
            lambda node: inject_stream(node, stream, 1, False,
                                       "source-0"),
            0, (t(3), t(7)))
        assert [first for _, _, first, _ in seen] == [0, 1, 2, 7, 8, 9]


def paced(scheme, **overrides):
    kwargs = dict(scheme=scheme, n_nodes=3, window_size=3_000,
                  n_windows=8, rate_per_node=20_000.0, seed=3,
                  saturated=False)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


#: ``Simulator.events_executed`` of ``paced(scheme, ...)`` at the
#: commit before the lazy feeder, as (saturated, paced, paced with 3
#: sources per node): the change must not add or drop a kernel event.
EXECUTED = {
    "approx": (1224, 3644, 3660),
    "central": (4478, 7518, 7535),
    "deco_async": (1977, 4336, 4356),
    "deco_mon": (1689, 3252, 3260),
    "deco_monlocal": (1869, 3307, 3315),
    "deco_sync": (2121, 4324, 4344),
    "disco": (3529, 7510, 7524),
    "scotty": (3277, 7510, 7524),
}


class TestCountGuards:
    @pytest.mark.parametrize("sources", [1, 3])
    def test_inject_arms_one_timer_per_client(self, sources):
        config = paced("deco_async", sources_per_node=sources)
        topo, ctx = driver.build_run(config)
        driver.inject_sources(topo, ctx, config.resolved_batch_size(),
                              config.saturated, sources)
        assert topo.sim.pending() == config.n_nodes * sources

    @pytest.mark.parametrize("sources", [1, 3])
    def test_worker_inject_holds_one_timer_per_client(self, sources):
        config = paced("deco_async", sources_per_node=sources)
        rt = WorkerRuntime("local-1", config)
        ops, blob = rt.start()
        assert ops == [] and blob == b""
        feeds = [e for e in rt.sim.live_events() if e.phase == PHASE_SOURCE]
        assert len(feeds) == sources

    def test_paced_run_keeps_a_few_live_events_per_node(self):
        config = paced("deco_async", n_nodes=4, window_size=4_000)
        topo, ctx = driver.build_run(config)
        driver.inject_sources(topo, ctx, config.resolved_batch_size(),
                              config.saturated)
        topo.start()
        sim = topo.sim
        cap = driver.simulation_cap_s(ctx)
        high = sim.pending()
        while ctx.result.n_windows < ctx.n_windows:
            assert sim.pending(), "run stalled"
            sim.run(until=cap, max_events=1)
            high = max(high, sim.pending())
        # Measured 10 (2 per node); the eager schedule held 12,730.
        assert high <= 4 * (config.n_nodes + 1)

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_executed_kernel_events_unchanged(self, scheme):
        assert sorted(EXECUTED) == sorted(available_schemes())
        got = []
        for overrides in (dict(saturated=True), {},
                          dict(sources_per_node=3)):
            config = paced(scheme, **overrides)
            topo, ctx = driver.build_run(config)
            driver.run_simulation(
                topo, ctx, config.resolved_batch_size(),
                config.saturated, config.sources_per_node)
            got.append(topo.sim.events_executed)
        assert tuple(got) == EXECUTED[scheme]


class TestRunRelease:
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async",
                                        "central"])
    @pytest.mark.parametrize("saturated", [True, False])
    def test_finished_run_is_freed_without_the_collector(
            self, monkeypatch, scheme, saturated):
        """A local behaviour's event buffer (and the kernel it ran on)
        die by reference count as soon as ``run_scheme`` returns."""
        refs = {}
        build_run = driver.build_run

        def spy(config, workload=None, tracer=None):
            topo, ctx = build_run(config, workload, tracer)
            refs["buffer"] = weakref.ref(topo.local(0).behavior.buffer)
            refs["root"] = weakref.ref(topo.root.behavior)
            refs["sim"] = weakref.ref(topo.sim)
            return topo, ctx

        monkeypatch.setattr(driver, "build_run", spy)
        gc.collect()
        gc.disable()
        try:
            result, workload = run_scheme(
                paced(scheme, saturated=saturated))
            alive = {name for name, ref in refs.items()
                     if ref() is not None}
        finally:
            gc.enable()
        assert alive == set()
        # What the caller got back is untouched by the teardown.
        assert result.n_windows == 8
        assert len(workload.streams) == 3
