"""Tests for the serve runtime: real node processes over TCP.

The headline contract is oracle fidelity: for every registered scheme,
running the cluster as real OS processes speaking the binary wire codec
over TCP produces a :class:`RunResult` whose determinism fingerprint is
*bit-identical* to the in-process simulator driver's.  The simulator is
the oracle; any divergence is a serve bug by definition.
"""

import json
import math
import re

import numpy as np
import pytest

from repro.core.protocol import RawEvents
from repro.core.runner import RunConfig, available_schemes, run_scheme
from repro.errors import ServeError, StreamError
from repro.obs.tracer import RunTracer
from repro.runtime.api import ROOT_NAME
from repro.serve import percentile, run_scheme_served
from repro.runtime.serialization import WireFormat
from repro.serve.coordinator import Coordinator
from repro.serve.harness import verify_against_simulator
from repro.serve.protocol import (config_from_json, config_to_json,
                                  outcome_from_json, outcome_to_json,
                                  sender_table)
from repro.serve.worker import WorkerRuntime
from repro.streams.batch import EventBatch
from repro.wire.codec import MessageCodec

import repro.core  # noqa: F401  (registers deco_* schemes)
import repro.baselines  # noqa: F401  (registers baselines)


def tiny_config(scheme, **overrides):
    """A cluster run small enough to serve in well under a second."""
    kwargs = dict(scheme=scheme, n_nodes=2, window_size=400,
                  n_windows=3, rate_per_node=20_000.0, seed=7)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestProtocolUnits:
    def test_config_json_roundtrip(self):
        config = tiny_config("deco_sync", saturated=False)
        blob = json.dumps(config_to_json(config))
        assert config_from_json(json.loads(blob)) == config

    def test_config_json_rejects_unknown_fields(self):
        payload = config_to_json(tiny_config("central"))
        payload["surprise"] = 1
        with pytest.raises(ServeError):
            config_from_json(payload)

    def test_sender_table_order(self):
        assert sender_table(2) == [ROOT_NAME, "local-0", "local-1"]

    def test_seed_senders_is_once_only(self):
        codec = MessageCodec(WireFormat.BINARY)
        codec.seed_senders(sender_table(2))
        with pytest.raises(StreamError):
            codec.seed_senders(sender_table(2))

    def test_outcome_roundtrip_preserves_span_keys(self):
        config = tiny_config("deco_sync")
        result, _ = run_scheme(config)
        for outcome in result.outcomes:
            wire = json.loads(json.dumps(outcome_to_json(outcome)))
            back = outcome_from_json(wire)
            assert back.spans == outcome.spans
            assert back.result == outcome.result
            assert back.emit_time == outcome.emit_time
            assert back.corrected == outcome.corrected

    def test_percentile_linear_interpolation(self):
        import numpy as np
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) == 50.5
        assert percentile(samples, 0.95) == 95.05
        assert percentile(samples, 0.99) == pytest.approx(99.01)
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        for q in (0.5, 0.9, 0.95, 0.99):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q * 100)))
        assert math.isnan(percentile([], 0.5))
        with pytest.raises(ValueError, match="q must be"):
            percentile(samples, 1.5)

    def test_percentile_tails_distinct_at_small_n(self):
        # The old nearest-rank rule returned the max sample for every
        # tail quantile once n < 20, collapsing p95 == p99.
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0.95) != percentile(samples, 0.99)


class TestWorkerRuntimeUnits:
    def test_unknown_node_rejected(self):
        with pytest.raises(ServeError, match="unknown node"):
            WorkerRuntime("local-9", tiny_config("deco_sync"))

    def test_slot_past_horizon_rejected(self):
        # A delivery at or past the horizon means the coordinator
        # broke conservative soundness; the worker refuses to run it.
        rt = WorkerRuntime("local-0", tiny_config("deco_sync"))
        with pytest.raises(ServeError, match="horizon"):
            rt.dispatch_epoch(
                {"h": 1.0, "slots": [[1.0, 1, [], 0, 0, 0]]}, b"")

    def test_inject_to_root_rejected(self):
        from repro.serve import framing
        rt = WorkerRuntime(ROOT_NAME, tiny_config("deco_sync"))
        with pytest.raises(ServeError, match="root"):
            rt.dispatch(framing.INJECT, {"now": 0.0})

    def test_inject_keeps_timers_local(self):
        # The feeder's timer stays in the worker's heap: the reply
        # carries no op, only when the node's next timer is due.
        from repro.serve import framing
        rt = WorkerRuntime("local-0", tiny_config("deco_sync"))
        kind, reply, blob = rt.handle(framing.INJECT, {"now": 0.0}, b"")
        assert kind == framing.OPS
        assert reply["ops"] == [] and blob == b""
        assert reply["n"] == 0.0
        assert len(rt.live_timers()) == 1


class TestMalformedSendOp:
    """A ``send`` op is the sender's to get right: a bad frame, a slice
    past the reply blob or a destination without a link fails the run
    with a :class:`ServeError` that names the node and the op."""

    @staticmethod
    def apply(op, blob):
        # The transport is never touched: ops are applied locally.
        coord = Coordinator(tiny_config("central"), transport=None)
        coord._apply_ops("local-0", [op], memoryview(blob))

    @staticmethod
    def frame():
        codec = MessageCodec()
        codec.seed_senders(sender_table(2))
        return codec.encode_message(RawEvents(
            sender="local-0", window_index=0,
            events=EventBatch(np.arange(3), np.ones(3), np.arange(3))))

    @staticmethod
    def names(op):
        return "local-0.*" + re.escape(repr(op))

    def test_bad_envelope(self):
        op = ["send", ROOT_NAME, 0, 40]
        with pytest.raises(ServeError, match=self.names(op) + ".*magic"):
            self.apply(op, b"\x00" * 40)

    def test_slice_past_the_blob(self):
        op = ["send", ROOT_NAME, 0, 40]
        with pytest.raises(ServeError, match=self.names(op) + ".*past"):
            self.apply(op, b"\x00" * 10)

    def test_unknown_destination(self):
        frame = self.frame()
        op = ["send", "local-9", 0, len(frame)]
        with pytest.raises(ServeError, match=self.names(op) + ".*link"):
            self.apply(op, frame)

    def test_good_op_is_routed(self):
        frame = self.frame()
        coord = Coordinator(tiny_config("central"), transport=None)
        coord._apply_ops("local-0", [["send", ROOT_NAME, 0, len(frame)]],
                         memoryview(frame))
        link = coord.topo.network.link("local-0", ROOT_NAME)
        assert link.stats.bytes_sent == len(frame)


class TestServeMatchesSimulator:
    """The tentpole assertion: serve ≡ simulator, every scheme."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_fingerprint_identity(self, scheme):
        config = tiny_config(scheme)
        verify_against_simulator(config, run_scheme_served(config).result)

    @pytest.mark.parametrize("field", ["outcomes", "node_busy_s"])
    def test_gate_sees_a_timing_only_difference(self, field):
        # One ulp in one window's emission time or one node's busy
        # time: nothing the salt-invariant Fingerprint compares moves.
        config = tiny_config("deco_sync")
        result, _ = run_scheme(config)
        if field == "outcomes":
            last = result.outcomes[-1]
            last.emit_time = math.nextafter(last.emit_time, math.inf)
        else:
            busy = result.node_busy_s
            busy[ROOT_NAME] = math.nextafter(busy[ROOT_NAME], math.inf)
        with pytest.raises(ServeError, match=f"oracle: {field}: "):
            verify_against_simulator(config, result)

    def test_paced_mode_identity_and_latency(self):
        config = tiny_config("deco_sync", saturated=False)
        report = run_scheme_served(config)
        verify_against_simulator(config, report.result)
        assert not report.saturated
        lat = report.window_latencies_s()
        assert len(lat) == config.n_windows
        assert all(sample >= 0.0 for sample in lat)
        pct = report.latency_percentiles()
        assert pct["p50_s"] <= pct["p95_s"] <= pct["p99_s"]
        assert math.isfinite(pct["p99_s"])

    def test_throughput_reported(self):
        report = run_scheme_served(tiny_config("central"))
        assert report.events_total > 0
        assert report.wall_seconds > 0
        assert report.throughput_eps > 0


class TestServeTracing:
    def test_trace_flows_through_serve(self):
        tracer = RunTracer()
        report = run_scheme_served(tiny_config("deco_sync"),
                                   tracer=tracer)
        assert report.tracer is tracer
        assert tracer.meta["runtime"] == "serve"
        kinds = {e.kind for e in tracer.events}
        # Worker-side behaviour tracing made it back to the merged
        # trace alongside the coordinator's fabric events.
        assert "window" in kinds
        assert "msg_send" in kinds
        # Per-frame transport counters, per-window latency gauges.
        assert tracer.counters[("serve_frames_sent", ROOT_NAME)] > 0
        assert tracer.counters[("serve_frames_recv", ROOT_NAME)] > 0
        assert ("serve_window_latency_s", ROOT_NAME) in tracer.gauges
        times = [e.time for e in tracer.events]
        assert times == sorted(times)

    @pytest.mark.parametrize("scheme", ["deco_sync", "central"])
    def test_msg_sends_equal_the_simulators(self, scheme):
        """The fabric routes unopened frames, yet traces every send as
        the simulator does: what ``repro check --trace`` and the scheme
        FSMs replay."""
        def sends(tracer):
            return [(e.time, e.node, e.data["dst"], e.data["msg"],
                     e.data["window"], e.data["size"])
                    for e in tracer.events if e.kind == "msg_send"]

        config = tiny_config(scheme)
        sim_tracer, serve_tracer = RunTracer(), RunTracer()
        run_scheme(config, tracer=sim_tracer)
        run_scheme_served(config, tracer=serve_tracer)
        assert sends(sim_tracer)
        assert sends(serve_tracer) == sends(sim_tracer)
