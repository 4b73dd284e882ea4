"""Tests for the serve coordinator's epoch loop (DESIGN §12).

The coordinator executes whole conservative-lookahead epochs
concurrently across worker processes and merges the emitted ops back
in canonical ``(time, phase, rank)`` order.  The contract under test:
for every scheme and workload shape — including a zero-latency fabric,
where each epoch is one event — the merged result's
``TimedFingerprint`` (emission times and busy time included) is
bit-identical to the in-process simulator's: concurrency must be free.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import DEFAULT_SALTS, Fingerprint
from repro.core.runner import RunConfig, available_schemes, run_scheme
from repro.errors import ConfigurationError, ServeError
from repro.serve import harness, run_scheme_served

import repro.core  # noqa: F401  (registers deco_* schemes)
import repro.baselines  # noqa: F401  (registers baselines)

from tests.test_serve_failures import (crash_before_handle,
                                       wait_no_lingering_workers)


def tiny_config(scheme, **overrides):
    kwargs = dict(scheme=scheme, n_nodes=2, window_size=400,
                  n_windows=3, rate_per_node=20_000.0, seed=7)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestEpochMatchesOracles:
    """Bit-identity: simulator == serve."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_fingerprint_identity_all_schemes(self, scheme):
        # Three locals: epochs with more than two concurrent repliers
        # (tests/test_serve.py covers the two-local shape).
        config = tiny_config(scheme, n_nodes=3)
        harness.verify_against_simulator(
            config, run_scheme_served(config).result)

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_zero_latency_fabric_matches_simulator(self, scheme):
        # No lookahead: the horizon is the head event's own time, so
        # the same loop runs one event per epoch.
        config = tiny_config(scheme, latency=0.0)
        harness.verify_against_simulator(
            config, run_scheme_served(config).result)

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    @pytest.mark.parametrize("latency", [100e-6, 0.0])
    def test_paced_three_sources_match_simulator(self, scheme,
                                                 latency):
        # Paced feeders re-arm themselves mid-epoch: below the horizon
        # the next source batch fires worker-locally (a class-1 merge
        # item), at or past it the timer goes back to the coordinator's
        # kernel.  Three clients per node, with and without lookahead.
        config = tiny_config(scheme, saturated=False, latency=latency,
                             sources_per_node=3)
        harness.verify_against_simulator(
            config, run_scheme_served(config).result)

    def test_epoch_paced_matches_oracle(self):
        config = tiny_config("deco_async", saturated=False)
        harness.verify_against_simulator(
            config, run_scheme_served(config).result)

    def test_epoch_is_salt_invariant(self):
        # The merge order inside an equal-(time, phase, rank) class is
        # the epoch loop's only freedom; the tie-break salt exercises the
        # same freedom on the simulator, so a salted epoch run must
        # still match the unsalted oracle at the salt-invariant
        # ``Fingerprint`` level (the salt permutes micro-timing).
        oracle = Fingerprint.of(run_scheme(tiny_config("deco_sync"))[0])
        salted = tiny_config("deco_sync", tiebreak_salt=0x5A5A)
        served = run_scheme_served(salted)
        assert Fingerprint.of(served.result) == oracle


class TestEpochBoundaryProperties:
    """Hypothesis sweep over workload shapes that move events across
    epoch horizons: different latencies change how many events share
    an epoch, different rates/windows change the stop position."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scheme=st.sampled_from(["deco_sync", "deco_async",
                                   "central"]),
           n_nodes=st.integers(min_value=1, max_value=3),
           window=st.sampled_from([300, 500, 800]),
           n_windows=st.integers(min_value=2, max_value=4),
           latency=st.sampled_from([0.0, 20e-6, 100e-6, 2e-3]),
           saturated=st.booleans(),
           seed=st.integers(min_value=0, max_value=50))
    def test_epoch_always_matches_simulator(self, scheme, n_nodes,
                                            window, n_windows, latency,
                                            saturated, seed):
        config = RunConfig(scheme=scheme, n_nodes=n_nodes,
                           window_size=window, n_windows=n_windows,
                           rate_per_node=20_000.0, latency=latency,
                           saturated=saturated, seed=seed)
        harness.verify_against_simulator(
            config, run_scheme_served(config).result)


class TestCrossNodeTrafficOnly:
    """Workers own their timers: the coordinator ships deliveries only
    and applies only batches with cross-node effects."""

    @staticmethod
    def observed_run(monkeypatch):
        """One traced saturated deco_async run; returns (tracer, EPOCH
        slots shipped, op tags of every op list applied)."""
        from repro.obs.tracer import RunTracer
        from repro.serve import framing
        from repro.serve.coordinator import Coordinator
        slots, applied = [], []
        real_send, real_apply = Coordinator._send, Coordinator._apply_ops

        def send(self, name, kind, header, blob=b""):
            if kind == framing.EPOCH:
                slots.extend(header["slots"])
            real_send(self, name, kind, header, blob)

        def apply_ops(self, name, ops, *args, **kwargs):
            applied.append({op[0] for op in ops})
            real_apply(self, name, ops, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "_send", send)
        monkeypatch.setattr(Coordinator, "_apply_ops", apply_ops)
        tracer = RunTracer()
        run_scheme_served(tiny_config("deco_async", n_nodes=3), tracer)
        return tracer, slots, applied

    def test_only_cross_node_batches_are_applied(self, monkeypatch):
        tracer, _, applied = self.observed_run(monkeypatch)
        # One START per node (root and three locals) comes first.
        merged = applied[3 + 1:]
        carrying = [tags for tags in merged
                    if tags & {"send", "outcome", "stop"}]
        assert tracer.counts_by_kind()["op_apply"] == len(merged) \
            == len(carrying)

    def test_every_epoch_slot_is_a_delivery(self, monkeypatch):
        from repro.runtime.api import PHASE_DELIVER
        _, slots, _ = self.observed_run(monkeypatch)
        assert slots
        assert all(slot[1] == PHASE_DELIVER for slot in slots)


class TestFramesForwardedVerbatim:
    """Each protocol message is encoded once, by its sender, and decoded
    once, by its receiver: the coordinator reads envelopes only and
    forwards the sender's bytes."""

    @pytest.mark.parametrize("scheme", ["central", "deco_async"])
    def test_coordinator_never_codes_a_message(self, scheme,
                                               monkeypatch):
        from collections import Counter

        from repro.serve import framing
        from repro.serve.coordinator import SocketTransport
        from repro.wire.codec import MessageCodec
        # Counted in this process, which is the coordinator's: the
        # workers are separate processes.
        calls = Counter()
        for method in ("encode_message", "decode_message"):
            def counted(self, arg, _real=getattr(MessageCodec, method),
                        _method=method):
                calls[_method] += 1
                return _real(self, arg)
            monkeypatch.setattr(MessageCodec, method, counted)
        shipped, forwarded = Counter(), Counter()
        real_recv, real_send = SocketTransport.recv, SocketTransport.send

        def recv(self, name):
            kind, header, blob = real_recv(self, name)
            batches = header.get("batches", [header])
            for op in (op for b in batches for op in b.get("ops", ())):
                if op[0] == "send":
                    shipped[blob[op[2]:op[2] + op[3]]] += 1
            return kind, header, blob

        def send(self, name, kind, header, blob):
            if kind == framing.EPOCH:
                for *_, offset, length in header["slots"]:
                    forwarded[bytes(blob[offset:offset + length])] += 1
            real_send(self, name, kind, header, blob)

        monkeypatch.setattr(SocketTransport, "recv", recv)
        monkeypatch.setattr(SocketTransport, "send", send)
        report = run_scheme_served(tiny_config(scheme, n_nodes=3))
        assert report.result.n_windows == 3
        assert calls == Counter()
        # Every EPOCH slot is, byte for byte, a frame a sender shipped.
        assert forwarded and not forwarded - shipped


#: One scheduling step: a timer ``(time, phase, rank, child delay)``
#: (the child, if any, is scheduled by the timer when it fires) or a
#: cancel of the n-th handle made so far.
TIMER_STEPS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0, 2.0]),
              st.sampled_from([0, 2]),
              st.sampled_from([(), ("a",), ("b",)]),
              st.sampled_from([None, 0.0, 1.0])),
    st.tuples(st.just("cancel"), st.integers(min_value=0,
                                             max_value=12)))


def fire_order(schedule_at, run, program):
    """Labels of the timers ``program`` creates, in firing order."""
    fired, handles = [], []

    def timer(label, at, phase, rank, child):
        def fire():
            fired.append(label)
            if child is not None:
                handles.append(schedule_at(
                    at + child, timer(f"{label}c", at + child, phase,
                                      rank, None),
                    phase=phase, rank=rank))
        return fire

    for i, step in enumerate(program):
        if step[0] == "schedule":
            _, at, phase, rank, child = step
            handles.append(schedule_at(at, timer(str(i), at, phase,
                                                 rank, child),
                                       phase=phase, rank=rank))
        elif step[1] < len(handles):
            handles[step[1]].cancel()
    run()
    return fired


class TestWorkerTimerOrder:
    @pytest.mark.parametrize("salt", [0, 0x5A5A],
                             ids=["unsalted", "salted"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=st.lists(TIMER_STEPS, max_size=24))
    def test_worker_kernel_fires_in_scheduling_order(self, salt,
                                                      program):
        # One node's timers, ties on (time, phase, rank) included, fire
        # through a worker's epoch in the order an unsalted kernel
        # fires them: the worker's kernel stays at salt 0 whatever the
        # config's salt, so its sequence is scheduling order.
        from repro.serve.worker import WorkerRuntime
        from repro.sim.kernel import Simulator
        sim = Simulator()
        expect = fire_order(sim.schedule_at, sim.run, program)
        rt = WorkerRuntime("local-0",
                           tiny_config("deco_sync", tiebreak_salt=salt))
        got = fire_order(
            rt.node.schedule_at,
            lambda: rt.dispatch_epoch({"h": 10.0, "slots": []}, b""),
            program)
        assert got == expect


class TestEpochCrash:
    def test_crash_mid_epoch_raises_and_cleans_up(self, monkeypatch):
        # Each worker hard-exits before replying to its third dispatch;
        # that lands inside an EPOCH frame, so the death
        # surfaces through the concurrent gather path.
        crash_before_handle(monkeypatch, 3)
        with pytest.raises(ServeError) as excinfo:
            run_scheme_served(tiny_config("deco_sync"))
        message = str(excinfo.value)
        assert "died" in message
        assert "exited 1" in message
        wait_no_lingering_workers()


class TestConcurrentSources:
    def test_sources_are_salt_invariant(self):
        # Multiple same-tick source deliveries are ordered by their
        # client-name rank, never by insertion order, so the kernel's
        # tie-break salt must not move results.
        base = tiny_config("central", saturated=False,
                           sources_per_node=3)
        prints = set()
        for salt in DEFAULT_SALTS:
            config = tiny_config("central", saturated=False,
                                 sources_per_node=3,
                                 tiebreak_salt=salt)
            prints.add(Fingerprint.of(run_scheme(config)[0]))
        assert len(prints) == 1
        assert prints == {Fingerprint.of(run_scheme(base)[0])}

    def test_saturated_sources_rejected(self):
        config = tiny_config("central", saturated=True,
                             sources_per_node=2)
        with pytest.raises(ConfigurationError, match="sources"):
            run_scheme(config)

    def test_zero_sources_rejected(self):
        config = tiny_config("central", saturated=False,
                             sources_per_node=0)
        with pytest.raises(ConfigurationError, match="sources"):
            run_scheme(config)
