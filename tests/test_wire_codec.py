"""Wire-codec round-trip, corruption, zero-copy and identity tests.

Every protocol message must survive ``encode_message`` →
``decode_message`` bit-exactly (Hypothesis drives the field space,
including empty batches, NaN/±inf values and int64 extremes), every
frame's length must equal the structural size model, decoded columns
must be views over the received buffer, damaged frames must raise
:class:`StreamError`, and — the acceptance gate — every scheme's
determinism fingerprint must equal the structurally sized reference's
(a fabric with ``codec = None``).
"""

import dataclasses
import hashlib
import inspect
import itertools
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.algebraic import Moments, SumCount
from repro.analysis.determinism import TimedFingerprint
from repro.core import protocol
from repro.core.protocol import (MESSAGE_TYPES, CorrectionReport,
                                 CorrectionRequest, FrontBuffer,
                                 LocalWindowReport, Message, RateReport,
                                 RawEvents, ResendRequest, SourceBatch,
                                 StartWindow, WindowAssignment,
                                 make_sizer, sizeof_message)
from repro.core.runner import RunConfig
from repro.errors import SimulationError, StreamError
from repro.runtime import INTEL_XEON
from repro.runtime.driver import build_run, run_simulation
from repro.runtime.serialization import WireFormat
from repro.sim import Network, SimNode, Simulator
from repro.streams.batch import EventBatch
from repro.wire.codec import (MessageCodec, decode_batch, encode_batch,
                              read_envelope)
from repro.wire.format import (HEADER_STRUCT, WIRE_HEADER_BYTES,
                               WIRE_VERSION, decode_partial,
                               encode_partial, partial_wire_slots)

I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
SENDERS = st.sampled_from(["root", "local-0", "local-1", "local-17"])


@st.composite
def batches(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ids = draw(st.lists(I64, min_size=n, max_size=n))
    values = draw(st.lists(FLOATS, min_size=n, max_size=n))
    ts = draw(st.lists(I64, min_size=n, max_size=n))
    if n == 0:
        return EventBatch.empty()
    return EventBatch(np.array(ids, np.int64),
                      np.array(values, np.float64),
                      np.array(ts, np.int64))


#: Every shape a scheme actually ships as a partial aggregate: nothing
#: (holistic raw-forwarding), floats/ints (distributive), the registered
#: named tuples (algebraic), plain tuples, and 1-d numpy columns.
partials = st.one_of(
    st.none(),
    FLOATS,
    I64,
    st.builds(SumCount, FLOATS, I64),
    st.builds(Moments, I64, FLOATS, FLOATS),
    st.tuples(FLOATS, I64),
    st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, np.float64)),
    st.lists(I64, max_size=6).map(lambda v: np.array(v, np.int64)),
)


#: What each declared slot kind holds.
SLOT_VALUES = {"q": I64, "d": FLOATS}


def message_strategy(cls):
    """Arbitrary messages of one kind, built from its wire declaration
    (so a new message kind is fuzzed without touching this file)."""
    wire = cls.WIRE
    fields = {"sender": SENDERS}
    for name, kind in zip(wire.slots, wire.kinds, strict=True):
        fields[name] = SLOT_VALUES[kind]
    if wire.partial is not None:
        fields[wire.partial] = partials
    if wire.batch is not None:
        fields[wire.batch] = batches()
    for name in wire.optional:
        fields[name] = st.none() | batches(max_size=5)
    return st.builds(cls, **fields)


def messages():
    """One arbitrary protocol message of any wire-framed type."""
    return st.one_of([message_strategy(cls) for cls in MESSAGE_TYPES])


def batch_bits(batch):
    return (batch.ids.tobytes(), batch.values.tobytes(),
            batch.ts.tobytes())


def opt_batch_bits(batch):
    return None if batch is None else batch_bits(batch)


def partial_bits(p):
    """Bit-exact comparison key for a partial (NaN-safe)."""
    if p is None:
        return None
    if isinstance(p, float):
        return ("f", struct.pack("<d", p))
    if isinstance(p, (int, np.integer)):
        return ("i", int(p))
    if isinstance(p, np.ndarray):
        return ("a", str(p.dtype), p.tobytes())
    if isinstance(p, tuple):
        return (type(p).__name__, tuple(partial_bits(x) for x in p))
    raise AssertionError(f"unexpected partial {p!r}")


def message_bits(msg):
    """Every field of a message, bit-exact and NaN-safe."""
    out = [type(msg).__name__, msg.sender]
    for name in (f.name for f in dataclasses.fields(msg)):
        if name == "sender":
            continue
        value = getattr(msg, name)
        if name == "partial":
            out.append(partial_bits(value))
        elif isinstance(value, EventBatch):
            out.append(batch_bits(value))
        elif value is None:
            out.append(None)
        elif isinstance(value, float):
            out.append(struct.pack("<d", value))
        else:
            out.append(int(value))
    return tuple(out)


class TestMessageRoundTrip:
    @given(msg=messages())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_bit_exact(self, msg):
        codec = MessageCodec()
        frame = codec.encode_message(msg)
        decoded = codec.decode_message(frame)
        assert type(decoded) is type(msg)
        assert message_bits(decoded) == message_bits(msg)

    @given(msg=messages())
    @settings(max_examples=200, deadline=None)
    def test_frame_length_equals_size_model(self, msg):
        """The tentpole contract: the structural size model IS the
        frame length, for every message, bit for bit."""
        codec = MessageCodec()
        frame = codec.encode_message(msg)
        if isinstance(msg, SourceBatch):
            # Modelled free (generator is co-located), still framed.
            assert sizeof_message(msg, WireFormat.BINARY) == 0
        else:
            assert len(frame) == sizeof_message(msg, WireFormat.BINARY)

    @given(msg=messages())
    @settings(max_examples=50, deadline=None)
    def test_reencode_is_stable(self, msg):
        codec = MessageCodec()
        frame = codec.encode_message(msg)
        again = codec.encode_message(codec.decode_message(frame))
        assert again == frame

    def test_absent_vs_empty_optional_buffers(self):
        codec = MessageCodec()
        for fbuffer in (None, EventBatch.empty()):
            msg = LocalWindowReport(
                sender="local-0", window_index=1, epoch=0, partial=1.5,
                slice_count=0, event_rate=10.0, fbuffer=fbuffer)
            decoded = codec.decode_message(codec.encode_message(msg))
            if fbuffer is None:
                assert decoded.fbuffer is None
            else:
                assert decoded.fbuffer is not None
                assert len(decoded.fbuffer) == 0

    def test_unknown_sender_id_rejected(self):
        codec = MessageCodec()
        frame = codec.encode_message(
            StartWindow(sender="root", window_index=0, epoch=0))
        with pytest.raises(StreamError, match="sender"):
            MessageCodec().decode_message(frame)

    def test_unregistered_message_type_has_no_frame(self):
        @dataclasses.dataclass(frozen=True)
        class Strange(StartWindow):
            pass

        with pytest.raises(StreamError, match="no wire frame"):
            MessageCodec().encode_message(
                Strange(sender="root", window_index=0, epoch=0))


class TestDeclarations:
    def test_every_protocol_message_is_registered_once(self):
        """A message left out of ``MESSAGE_TYPES`` has no frame type id:
        every concrete ``Message`` subclass the protocol module defines
        is in the registry exactly once."""
        defined = [cls for _, cls in inspect.getmembers(
            protocol, inspect.isclass)
            if issubclass(cls, Message) and cls is not Message
            and cls.__module__ == protocol.__name__]
        assert sorted(defined, key=lambda c: c.__name__) == \
            sorted(MESSAGE_TYPES, key=lambda c: c.__name__)

    @pytest.mark.parametrize("cls", MESSAGE_TYPES)
    def test_declaration_names_each_field_once(self, cls):
        """The declaration covers the dataclass: every field but the
        sender travels in exactly one place of the frame."""
        wire = cls.WIRE
        declared = [*wire.slots, *wire.optional, wire.partial, wire.batch]
        assert sorted(name for name in declared if name) == sorted(
            f.name for f in dataclasses.fields(cls) if f.name != "sender")


def golden_corpus():
    """A fixed, seeded corpus: every message kind, every partial shape,
    and absent / empty / non-empty ``fbuffer`` and ``ebuffer``."""
    state = [19]

    def i64():
        # A 64-bit LCG (Knuth's MMIX constants), not a library RNG: the
        # corpus must not move when numpy or Python change a generator.
        state[0] = (state[0] * 6364136223846793005
                    + 1442695040888963407) % 2 ** 64
        return state[0] - 2 ** 63

    def f64():
        return i64() / 2 ** 40

    def batch(n):
        if n == 0:
            return EventBatch.empty()
        return EventBatch(np.array([i64() for _ in range(n)], np.int64),
                          np.array([f64() for _ in range(n)], np.float64),
                          np.array([i64() for _ in range(n)], np.int64))

    shapes = (None, 1.5, -0.0, 7, SumCount(2.5, 3),
              Moments(4, 1.25, 0.5), (1.0, 2),
              np.array([0.5, -1.5, float("inf")], np.float64),
              np.array([3, -4, 2 ** 40], np.int64),
              np.array([], np.float64))
    optional = (lambda: None, lambda: batch(0), lambda: batch(3))
    corpus = [
        SourceBatch(sender="local-0", events=batch(5)),
        SourceBatch(sender="local-1", events=batch(0)),
        RawEvents(sender="local-0", window_index=3, events=batch(4),
                  start=-1),
        RawEvents(sender="local-1", window_index=0, events=batch(0),
                  start=i64()),
        ResendRequest(sender="root", from_position=i64()),
        RateReport(sender="local-1", window_index=2,
                   event_rate=f64(), events_seen=i64()),
        FrontBuffer(sender="local-0", window_index=9, epoch=1,
                    spec_start=i64(), events=batch(6)),
        WindowAssignment(sender="root", window_index=4, epoch=2,
                         predicted_size=i64(), delta=i64(),
                         start_position=i64(), release_before=i64(),
                         watermark=i64()),
        WindowAssignment(sender="root", window_index=5, epoch=0,
                         predicted_size=800, delta=12),
        CorrectionRequest(sender="root", window_index=6, epoch=3,
                          actual_size=i64(), start_position=i64(),
                          watermark=i64()),
        StartWindow(sender="root", window_index=7, epoch=4,
                    watermark=i64()),
    ]
    for k, partial in enumerate(shapes):
        corpus.append(CorrectionReport(
            sender="local-1", window_index=k, epoch=k % 3,
            partial=partial, count=i64(), last_event=batch(k % 2)))
    for k, (partial, (fbuf, ebuf)) in enumerate(zip(
            itertools.cycle(shapes),
            itertools.product(optional, optional))):
        corpus.append(LocalWindowReport(
            sender=f"local-{k % 2}", window_index=k, epoch=k % 4,
            partial=partial, slice_count=i64(), event_rate=f64(),
            buffer=batch(k % 3), fbuffer=fbuf(), ebuffer=ebuf(),
            spec_start=i64(), slice_start=i64(), first_ts=i64(),
            last_ts=i64()))
    return corpus


class TestGoldenFrames:
    def test_wire_layout_is_pinned(self):
        """Bytes on the wire are a measured result (Fig. 8): the frames
        of the golden corpus hash to the digest taken before the codec
        became declaration-driven.  A deliberate layout change must
        bump ``WIRE_VERSION`` and this digest together."""
        corpus = golden_corpus()
        assert {type(msg) for msg in corpus} == set(MESSAGE_TYPES)
        codec = MessageCodec()
        frames = b"".join(codec.encode_message(msg) for msg in corpus)
        assert WIRE_VERSION == 1
        assert hashlib.sha256(frames).hexdigest() == (
            "63d32ec5874548601ed794e360685e90"
            "b9e83d6a8db70bead23a60217b75e46f")


class TestBatchFrames:
    @given(batch=batches(max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, batch):
        decoded = decode_batch(encode_batch(batch))
        assert batch_bits(decoded) == batch_bits(batch)

    def test_empty_batch(self):
        frame = encode_batch(EventBatch.empty())
        assert len(frame) == WIRE_HEADER_BYTES
        assert len(decode_batch(frame)) == 0

    def test_zero_copy_views(self):
        """Regression: decode must NOT copy the event columns."""
        batch = EventBatch(np.arange(64), np.linspace(0, 1, 64),
                           np.arange(64))
        frame = encode_batch(batch)
        decoded = decode_batch(frame)
        backing = np.frombuffer(frame, np.uint8)
        for col in (decoded.ids, decoded.values, decoded.ts):
            assert np.shares_memory(col, backing)
            assert not col.flags.writeable

    def test_batch_frame_is_not_a_message(self):
        with pytest.raises(StreamError, match="frame type"):
            MessageCodec().decode_message(
                encode_batch(EventBatch.empty()))

    def test_message_frame_is_not_a_batch(self):
        codec = MessageCodec()
        frame = codec.encode_message(
            StartWindow(sender="root", window_index=0, epoch=0))
        with pytest.raises(StreamError, match="batch frame"):
            decode_batch(frame)


class TestCorruption:
    def frame(self):
        codec = MessageCodec()
        msg = RawEvents(sender="local-0", window_index=3,
                        events=EventBatch(np.arange(4),
                                          np.ones(4), np.arange(4)),
                        start=0)
        return codec, codec.encode_message(msg)

    def test_every_truncation_rejected(self):
        codec, frame = self.frame()
        for cut in range(len(frame)):
            with pytest.raises(StreamError):
                codec.decode_message(frame[:cut])

    def test_trailing_garbage_rejected(self):
        codec, frame = self.frame()
        with pytest.raises(StreamError):
            codec.decode_message(frame + b"\x00")

    def test_payload_bitflip_rejected_by_crc(self):
        codec, frame = self.frame()
        for at in range(WIRE_HEADER_BYTES, len(frame), 7):
            damaged = bytearray(frame)
            damaged[at] ^= 0x40
            with pytest.raises(StreamError):
                codec.decode_message(bytes(damaged))

    def test_bad_magic_rejected(self):
        codec, frame = self.frame()
        with pytest.raises(StreamError, match="magic"):
            codec.decode_message(b"XX" + frame[2:])

    def test_bad_version_rejected(self):
        codec, frame = self.frame()
        damaged = bytearray(frame)
        damaged[2] = 99
        with pytest.raises(StreamError, match="version"):
            codec.decode_message(bytes(damaged))

    def test_lying_event_count_rejected(self):
        codec, frame = self.frame()
        damaged = bytearray(frame)
        struct.pack_into("<q", damaged, 12, 9999)  # n_events slot
        with pytest.raises(StreamError):
            codec.decode_message(bytes(damaged))

    def test_truncated_partial_descriptor(self):
        view = memoryview(b"\x00" * 4)
        with pytest.raises(StreamError, match="truncated"):
            decode_partial(view, 0, 4)

    def test_partial_slot_model_matches_encoding(self):
        for p in (None, 1.5, 7, SumCount(2.0, 3),
                  Moments(2, 1.0, 0.5), (1.0, 2),
                  np.arange(4, dtype=np.float64)):
            out = bytearray()
            encode_partial(p, out)
            assert len(out) == 8 * partial_wire_slots(p)

    def test_unencodable_partial_rejected(self):
        with pytest.raises(StreamError, match="register"):
            encode_partial({"not": "wire-safe"}, bytearray())
        with pytest.raises(StreamError, match="1-d"):
            partial_wire_slots(np.zeros((2, 2)))


class TestEnvelope:
    """A routing hop reads a frame's envelope instead of decoding it, so
    what the envelope says must be what the message would say."""

    @given(msg=messages(), fmt=st.sampled_from(list(WireFormat)))
    @settings(max_examples=200, deadline=None)
    def test_envelope_equals_the_model(self, msg, fmt):
        frame = MessageCodec().encode_message(msg)
        envelope = read_envelope(frame)
        assert envelope.frame is frame
        assert envelope.message_type is type(msg)
        assert envelope.size(fmt) == sizeof_message(msg, fmt)
        assert envelope.window_index == getattr(msg, "window_index",
                                                None)
        # A view into a larger buffer (a reply blob) reads the same.
        view = memoryview(b"pad" + frame)[3:]
        assert read_envelope(view)[1:] == envelope[1:]

    @given(msg=messages(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_damaged_frame_rejected(self, msg, data):
        frame = MessageCodec().encode_message(msg)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(StreamError):
            read_envelope(frame[:cut])
        if len(frame) > WIRE_HEADER_BYTES:
            at = data.draw(st.integers(WIRE_HEADER_BYTES, len(frame) - 1))
            damaged = bytearray(frame)
            damaged[at] ^= 0x40
            with pytest.raises(StreamError, match="CRC"):
                read_envelope(bytes(damaged))

    def test_batch_frame_has_no_envelope(self):
        frame = encode_batch(EventBatch(np.arange(2), np.ones(2),
                                        np.arange(2)))
        with pytest.raises(StreamError, match="frame type"):
            read_envelope(frame)


def resealed(frame, n_events=None):
    """``frame`` with its header made consistent with its (edited)
    payload again — payload length and CRC recomputed, the event count
    optionally replaced — so only a content check can reject it."""
    head = list(HEADER_STRUCT.unpack_from(frame, 0))
    payload = bytes(frame[WIRE_HEADER_BYTES:])
    if n_events is not None:
        head[5] = n_events
    head[6:] = [len(payload), zlib.crc32(payload)]
    return HEADER_STRUCT.pack(*head) + payload


class TestContentChecks:
    """Checks on a frame's content that its envelope cannot vouch for:
    each frame below has a consistent header and a valid CRC."""

    def test_bad_optional_length_slot_rejected(self):
        """A length slot is -1 (absent) or a count: -2 with every
        envelope count and the CRC consistent is still refused."""
        codec = MessageCodec()
        msg = LocalWindowReport(
            sender="local-0", window_index=1, epoch=0, partial=None,
            slice_count=0, event_rate=1.0)
        damaged = bytearray(codec.encode_message(msg))
        fbuffer_slot = WIRE_HEADER_BYTES + 8 * len(msg.WIRE.slots)
        assert struct.unpack_from("<q", damaged, fbuffer_slot) == (-1,)
        struct.pack_into("<q", damaged, fbuffer_slot, -2)
        with pytest.raises(StreamError, match="length slot"):
            codec.decode_message(resealed(damaged))

    def test_events_on_a_batchless_message_rejected(self):
        """A kind that declares no batch carries no events, even when
        the envelope accounts for the extra columns exactly."""
        codec = MessageCodec()
        frame = codec.encode_message(
            StartWindow(sender="root", window_index=0, epoch=0))
        with pytest.raises(StreamError, match="declared batches"):
            codec.decode_message(
                resealed(bytearray(frame) + bytes(24), n_events=1))


#: Everything the runner registers, including the ablation variant.
FINGERPRINT_SCHEMES = ("central", "scotty", "disco", "approx",
                       "deco_mon", "deco_sync", "deco_async",
                       "deco_monlocal")

TINY = dict(n_nodes=2, window_size=800, n_windows=3,
            rate_per_node=20_000.0, rate_change=0.05)


class TestSchemeBitIdentity:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_fingerprint_invariant_under_codec_toggle(self, scheme):
        """The acceptance gate: window results, spans, flows, bytes and
        message counts are bit-identical with the real binary codec on
        the message path (what ``build_run`` installs) or off (the
        structural sizer alone)."""
        def fingerprint(with_codec):
            config = RunConfig(scheme=scheme, **TINY)
            topo, ctx = build_run(config)
            assert topo.network.codec is not None
            if not with_codec:
                topo.network.codec = None
            result = run_simulation(
                topo, ctx, config.resolved_batch_size(),
                config.saturated)
            assert result.n_windows == ctx.n_windows
            return TimedFingerprint.of(result)

        on, off = fingerprint(True), fingerprint(False)
        assert on == off, "\n".join(on.diff(off))


class TestHandleTimeCoding:
    """The simulator codes a message when its receiver handles it: a
    frame still queued at the stop, dropped, or sent to a crashed node
    is never encoded, a sent array is frozen, and every handled frame
    is checked against the size its link was charged."""

    @staticmethod
    def pair():
        sim = Simulator()
        net = Network(sim, sizer=make_sizer(WireFormat.BINARY))
        net.codec = MessageCodec()
        received = []

        class Keep:
            def on_start(self, node):
                pass

            def on_message(self, node, msg):
                received.append(msg)

            def service_time(self, node, msg):
                return 0.0

        for name in ("local-0", "root"):
            net.attach(SimNode(sim, name, INTEL_XEON, Keep()))
        net.connect("local-0", "root")
        return sim, net, received

    @staticmethod
    def run(saturated, **overrides):
        config = RunConfig(scheme="central", saturated=saturated,
                           **{**TINY, **overrides})
        topo, ctx = build_run(config)
        return topo, lambda: run_simulation(
            topo, ctx, config.resolved_batch_size(), config.saturated)

    @pytest.mark.parametrize("saturated", [True, False])
    def test_only_handled_frames_are_coded(self, saturated):
        topo, go = self.run(saturated)
        go()
        network = topo.network
        handled = topo.root.metrics.messages
        assert network.codec.frames_encoded == handled
        if saturated:
            # The root stops with raw-event frames still queued.
            assert handled < network.total_messages()
        else:
            assert handled == network.total_messages()

    def test_sent_arrays_are_frozen(self):
        sim, net, received = self.pair()
        parts = [EventBatch(np.arange(3), np.full(3, 1.5), np.arange(3)),
                 EventBatch(np.arange(3, 5), np.full(2, 2.5),
                            np.arange(3, 5))]
        events = EventBatch.concat(parts)
        assert events.values.flags.writeable
        sent_bits = batch_bits(events)
        msg = RawEvents(sender="local-0", window_index=0, events=events)
        net.send("local-0", "root", msg)
        for column in (events.ids, events.values, events.ts):
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            events.values[0] = 9.0
        sim.run()
        [got] = received
        assert got is not msg
        assert batch_bits(got.events) == sent_bits

    def test_optional_batches_and_array_partials_are_frozen(self):
        sim, net, received = self.pair()
        fbuffer = EventBatch(np.arange(2), np.ones(2), np.arange(2))
        partial = (np.array([1.0, 2.0]), 3)
        msg = LocalWindowReport(
            sender="local-0", window_index=1, epoch=0, partial=partial,
            slice_count=0, event_rate=10.0, fbuffer=fbuffer)
        net.send("local-0", "root", msg)
        assert not fbuffer.ts.flags.writeable
        assert not partial[0].flags.writeable
        sim.run()
        [got] = received
        assert got.partial[0].tolist() == [1.0, 2.0]

    def test_dropped_and_crashed_frames_are_never_coded(self):
        sim, net, received = self.pair()
        msg = StartWindow(sender="local-0", window_index=0, epoch=0)
        net.drop_filter = lambda src, dst, m, size: True
        net.send("local-0", "root", msg)
        net.drop_filter = None
        net.node("root").crash()
        net.send("local-0", "root", msg)
        sim.run()
        assert received == []
        assert net.codec.frames_encoded == 0

    def test_charged_size_is_checked_at_handle_time(self):
        topo, go = self.run(True)
        network = topo.network
        sizer = network.sizer
        network.sizer = lambda msg: sizer(msg) - 1
        with pytest.raises(SimulationError, match="RawEvents"):
            go()
        # The first handled frame raised: nothing else was coded.
        assert network.codec.frames_encoded == 1


class TestSizeModelDerivation:
    def test_string_format_triples_binary(self):
        msg = RateReport(sender="local-0", window_index=1,
                         event_rate=5.0, events_seen=100)
        assert sizeof_message(msg, WireFormat.STRING) == \
            3 * sizeof_message(msg, WireFormat.BINARY)

    def test_disco_codec_keeps_string_size_model(self):
        codec = MessageCodec(WireFormat.STRING)
        assert not codec.sizes_from_frames
        msg = StartWindow(sender="root", window_index=0, epoch=0)
        # Frames still round-trip for delivery even when sized by model.
        decoded = codec.decode_message(codec.encode_message(msg))
        assert decoded == msg

    def test_codec_host_stats(self):
        codec = MessageCodec()
        msg = StartWindow(sender="root", window_index=0, epoch=0)
        frame = codec.encode_message(msg)
        assert codec.frames_encoded == 1
        assert codec.bytes_framed == len(frame)


class TestValueFidelity:
    def test_nan_and_inf_values_roundtrip(self):
        codec = MessageCodec()
        batch = EventBatch(np.arange(3),
                           np.array([math.nan, math.inf, -math.inf]),
                           np.arange(3))
        msg = RawEvents(sender="local-0", window_index=0, events=batch)
        decoded = codec.decode_message(codec.encode_message(msg))
        assert batch_bits(decoded.events) == batch_bits(batch)

    def test_int64_extremes_roundtrip(self):
        codec = MessageCodec()
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        batch = EventBatch(np.array([lo, hi]), np.zeros(2),
                           np.array([hi, lo]))
        msg = FrontBuffer(sender="local-1", window_index=hi, epoch=0,
                          spec_start=lo, events=batch)
        decoded = codec.decode_message(codec.encode_message(msg))
        assert decoded.window_index == hi
        assert decoded.spec_start == lo
        assert batch_bits(decoded.events) == batch_bits(batch)
