"""Zero-copy binary message codec for the Deco protocol.

:class:`MessageCodec` turns every protocol message of
:mod:`repro.core.protocol` into one binary frame (layout in
:mod:`repro.wire.format`) and back.  Event payloads travel columnar —
``int64`` ids, ``float64`` values, ``int64`` timestamps packed straight
from the :class:`~repro.streams.batch.EventBatch` arrays — and decode
returns :class:`EventBatch` views over the received buffer via
``np.frombuffer``: no per-event objects, no column copies.

The simulator driver installs the codec on
:attr:`repro.sim.network.Network.codec`, so every message through
:meth:`~repro.sim.network.Network.send` is encoded, *sized from the
actual frame* (binary formats), and delivered decoded; a fabric with
``codec = None`` delivers messages as-is and sizes them by the
structural model.  Both paths are bit-identical in results, flows,
bytes, and determinism fingerprints — the model derives its constants
from this layout and counts scalars with the same
:func:`~repro.wire.format.partial_wire_slots` helper, so
``len(encode_message(msg)) == sizeof_message(msg, BINARY)`` for every
message (asserted in tests).

Sender names are interned per codec (dictionary encoding, one ``int32``
routing slot in the header); a real transport would replay the name
table during its handshake.  Truncated or corrupted buffers raise
:class:`~repro.errors.StreamError` — a CRC32 over the payload plus
strict length accounting means a damaged frame can never silently
misparse into a different valid message.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable
from typing import Any

from repro.core.protocol import (CorrectionReport, CorrectionRequest,
                                 FrontBuffer, LocalWindowReport, Message,
                                 RateReport, RawEvents, ResendRequest,
                                 SourceBatch, StartWindow,
                                 WindowAssignment)
from repro.errors import StreamError
from repro.runtime.serialization import WireFormat
from repro.streams.batch import EventBatch
from repro.wire.format import (HEADER_STRUCT, WIRE_HEADER_BYTES,
                               WIRE_MAGIC, WIRE_VERSION, append_columns,
                               decode_columns, decode_partial,
                               encode_partial, frame_size)

#: Frame type ids (one per protocol message, plus the bare-batch frame).
FRAME_BATCH = 0
_FRAME_TYPES: tuple[type, ...] = (
    SourceBatch, RawEvents, ResendRequest, RateReport,
    LocalWindowReport, FrontBuffer, CorrectionReport, WindowAssignment,
    CorrectionRequest, StartWindow)
_TYPE_IDS: dict[type, int] = {
    cls: i + 1 for i, cls in enumerate(_FRAME_TYPES)}

_PACK_Q = struct.Struct("<q").pack
_PACK_D = struct.Struct("<d").pack
_UNPACK_Q = struct.Struct("<q").unpack_from
_UNPACK_D = struct.Struct("<d").unpack_from

#: No-sender sentinel for bare batch frames.
_NO_SENDER = -1


class _Reader:
    """Bounds-checked slot reader over one frame's scalar section."""

    __slots__ = ("view", "offset", "end")

    def __init__(self, view: memoryview, offset: int, end: int) -> None:
        self.view = view
        self.offset = offset
        self.end = end

    def _advance(self) -> int:
        at = self.offset
        if at + 8 > self.end:
            raise StreamError("truncated scalar section")
        self.offset = at + 8
        return at

    def i(self) -> int:
        """Read one int64 slot."""
        return _UNPACK_Q(self.view, self._advance())[0]

    def f(self) -> float:
        """Read one float64 slot."""
        return _UNPACK_D(self.view, self._advance())[0]

    def partial(self) -> Any:
        """Read one tagged partial-aggregate encoding."""
        value, self.offset = decode_partial(self.view, self.offset,
                                            self.end)
        return value

    def done(self) -> None:
        """Assert the scalar section was consumed exactly."""
        if self.offset != self.end:
            raise StreamError(
                f"scalar section length mismatch: {self.end - self.offset}"
                f" bytes left after decode")


class MessageCodec:
    """Binary codec bound to one run's message path.

    ``fmt`` names the wire format the *scheme* is modelled with: binary
    schemes are sized from the actual frames; the Disco baseline keeps
    its string-expansion size model (strings are the point of that
    baseline) while still round-tripping payload bits through the
    binary frames for delivery.
    """

    def __init__(self, fmt: WireFormat = WireFormat.BINARY) -> None:
        self.fmt = fmt
        #: Whether :meth:`repro.sim.network.Network.send` should charge
        #: the link ``len(frame)`` instead of the structural model.
        self.sizes_from_frames = fmt is WireFormat.BINARY
        self._sender_ids: dict[str, int] = {}
        self._sender_names: list[str] = []
        # -- host-side statistics (never affect results) --
        self.frames_encoded = 0
        self.bytes_framed = 0

    # -- sender interning --------------------------------------------------

    def seed_senders(self, names: list[str]) -> None:
        """Pre-install a canonical sender table (handshake replay).

        Interning is otherwise first-use order, which is fine within
        one process but ambiguous across processes: the serve runtime's
        coordinator and workers each hold their own codec, so both
        sides seed the same table up front and every frame's ``int32``
        routing slot resolves identically everywhere.  Seeding must
        happen before any frame is encoded.
        """
        if self._sender_names:
            raise StreamError(
                "sender table already populated; seed_senders must run "
                "before the first encode/decode")
        for name in names:
            self._sender_id(name)

    def _sender_id(self, sender: str) -> int:
        sid = self._sender_ids.get(sender)
        if sid is None:
            sid = len(self._sender_names)
            self._sender_ids[sender] = sid
            self._sender_names.append(sender)
        return sid

    def _sender_name(self, sid: int) -> str:
        if 0 <= sid < len(self._sender_names):
            return self._sender_names[sid]
        raise StreamError(f"unknown interned sender id {sid}")

    # -- encode ------------------------------------------------------------

    def encode_message(self, msg: Message) -> bytes:
        """One binary frame holding ``msg``, columns packed zero-copy."""
        try:
            msgtype = _TYPE_IDS[type(msg)]
        except KeyError:
            raise StreamError(
                f"no wire frame for message type "
                f"{type(msg).__name__}") from None
        scalars = bytearray()
        batches: list[EventBatch] = []
        _ENCODERS[msgtype - 1](msg, scalars, batches)
        return self._frame(msgtype, self._sender_id(msg.sender),
                           scalars, batches)

    def _frame(self, msgtype: int, sender_id: int,
               scalars: bytearray | bytes,
               batches: list[EventBatch]) -> bytes:
        parts: list[bytes] = [bytes(scalars)]
        n_events = 0
        for batch in batches:
            n_events += len(batch)
            append_columns(batch, parts)
        crc = 0
        payload_len = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
            payload_len += len(part)
        header = HEADER_STRUCT.pack(
            WIRE_MAGIC, WIRE_VERSION, msgtype, len(scalars) // 8,
            sender_id, n_events, payload_len, crc)
        self.frames_encoded += 1
        self.bytes_framed += WIRE_HEADER_BYTES + payload_len
        return b"".join([header, *parts])

    # -- decode ------------------------------------------------------------

    def decode_message(self, buf: bytes) -> Message:
        """Rebuild the message from one frame (zero-copy event views)."""
        msgtype, sender_id, reader, view, col_at, n_events = \
            _parse_header(buf)
        if msgtype == FRAME_BATCH or msgtype > len(_FRAME_TYPES):
            raise StreamError(f"unexpected frame type {msgtype} for a "
                              f"protocol message")
        sender = self._sender_name(sender_id)
        msg, col_at = _DECODERS[msgtype - 1](sender, reader, view,
                                             col_at, n_events)
        reader.done()
        if col_at != len(buf):
            raise StreamError("frame length mismatch after columns")
        return msg

    # -- introspection -----------------------------------------------------

    def __repr__(self) -> str:
        return (f"MessageCodec(fmt={self.fmt.value!r}, "
                f"frames={self.frames_encoded})")


# -- standalone batch frames ---------------------------------------------------

def encode_batch(batch: EventBatch) -> bytes:
    """One bare columnar frame holding a batch (no message semantics)."""
    parts: list[bytes] = []
    append_columns(batch, parts)
    crc = 0
    payload_len = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        payload_len += len(part)
    header = HEADER_STRUCT.pack(WIRE_MAGIC, WIRE_VERSION, FRAME_BATCH,
                                0, _NO_SENDER, len(batch), payload_len,
                                crc)
    return b"".join([header, *parts])


def decode_batch(buf: bytes) -> EventBatch:
    """Decode a bare batch frame into zero-copy column views."""
    msgtype, _, reader, view, col_at, n_events = _parse_header(buf)
    if msgtype != FRAME_BATCH:
        raise StreamError(
            f"expected a batch frame, got frame type {msgtype}")
    reader.done()
    batch, col_at = decode_columns(view, col_at, n_events)
    if col_at != len(buf):
        raise StreamError("frame length mismatch after columns")
    return batch


def _parse_header(
        buf: bytes) -> tuple[int, int, _Reader, memoryview, int, int]:
    """Validate one frame's envelope; returns its parsed geometry.

    Checks, in order: minimum length, magic, version, scalar/event
    accounting against the declared and actual payload lengths, and the
    payload CRC.  Any mismatch raises :class:`StreamError`.
    """
    if len(buf) < WIRE_HEADER_BYTES:
        raise StreamError(
            f"truncated frame: {len(buf)} bytes < {WIRE_HEADER_BYTES}-"
            f"byte header")
    magic, version, msgtype, n_scalars, sender_id, n_events, \
        payload_len, crc = HEADER_STRUCT.unpack_from(buf, 0)
    if magic != WIRE_MAGIC:
        raise StreamError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise StreamError(
            f"unsupported wire version {version} (expected "
            f"{WIRE_VERSION})")
    if n_events < 0 or n_scalars < 0:
        raise StreamError("negative frame counts")
    expected = frame_size(n_events, n_scalars) - WIRE_HEADER_BYTES
    if payload_len != expected:
        raise StreamError(
            f"frame payload length {payload_len} does not match "
            f"declared content ({n_scalars} scalars, {n_events} "
            f"events: expected {expected})")
    if len(buf) != WIRE_HEADER_BYTES + payload_len:
        raise StreamError(
            f"truncated frame: have {len(buf)} bytes, header declares "
            f"{WIRE_HEADER_BYTES + payload_len}")
    view = memoryview(buf)
    if zlib.crc32(view[WIRE_HEADER_BYTES:]) != crc:
        raise StreamError("frame CRC mismatch (corrupted payload)")
    scalars_end = WIRE_HEADER_BYTES + 8 * n_scalars
    reader = _Reader(view, WIRE_HEADER_BYTES, scalars_end)
    return msgtype, sender_id, reader, view, scalars_end, n_events


# -- per-type frame schemas ----------------------------------------------------
#
# One encoder/decoder pair per protocol message.  The scalar slots each
# schema writes MUST mirror the counts in
# ``repro.core.protocol.sizeof_message`` — the frame/model size-equality
# tests pin the two together.

def _enc_source_batch(msg: SourceBatch, out: bytearray,
                      batches: list[EventBatch]) -> None:
    batches.append(msg.events)


def _dec_source_batch(sender: str, r: _Reader, view: memoryview,
                      at: int, n: int) -> tuple[Message, int]:
    events, at = decode_columns(view, at, n)
    return SourceBatch(sender=sender, events=events), at


def _enc_raw_events(msg: RawEvents, out: bytearray,
                    batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.start)
    batches.append(msg.events)


def _dec_raw_events(sender: str, r: _Reader, view: memoryview,
                    at: int, n: int) -> tuple[Message, int]:
    window_index = r.i()
    start = r.i()
    events, at = decode_columns(view, at, n)
    return RawEvents(sender=sender, window_index=window_index,
                     events=events, start=start), at


def _enc_resend_request(msg: ResendRequest, out: bytearray,
                        batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.from_position)


def _dec_resend_request(sender: str, r: _Reader, view: memoryview,
                        at: int, n: int) -> tuple[Message, int]:
    return ResendRequest(sender=sender, from_position=r.i()), at


def _enc_rate_report(msg: RateReport, out: bytearray,
                     batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_D(msg.event_rate)
    out += _PACK_Q(msg.events_seen)


def _dec_rate_report(sender: str, r: _Reader, view: memoryview,
                     at: int, n: int) -> tuple[Message, int]:
    return RateReport(sender=sender, window_index=r.i(),
                      event_rate=r.f(), events_seen=r.i()), at


#: Length slot sentinel for an absent optional buffer (`None`), as
#: opposed to a present-but-empty one (0).
_ABSENT = -1


def _enc_window_report(msg: LocalWindowReport, out: bytearray,
                       batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.slice_count)
    out += _PACK_D(msg.event_rate)
    out += _PACK_Q(msg.spec_start)
    out += _PACK_Q(msg.slice_start)
    out += _PACK_Q(msg.first_ts)
    out += _PACK_Q(msg.last_ts)
    out += _PACK_Q(_ABSENT if msg.fbuffer is None else len(msg.fbuffer))
    out += _PACK_Q(_ABSENT if msg.ebuffer is None else len(msg.ebuffer))
    encode_partial(msg.partial, out)
    batches.append(msg.buffer)
    if msg.fbuffer is not None:
        batches.append(msg.fbuffer)
    if msg.ebuffer is not None:
        batches.append(msg.ebuffer)


def _dec_window_report(sender: str, r: _Reader, view: memoryview,
                       at: int, n: int) -> tuple[Message, int]:
    window_index = r.i()
    epoch = r.i()
    slice_count = r.i()
    event_rate = r.f()
    spec_start = r.i()
    slice_start = r.i()
    first_ts = r.i()
    last_ts = r.i()
    f_len = r.i()
    e_len = r.i()
    partial = r.partial()
    buf_len = n - max(f_len, 0) - max(e_len, 0)
    if buf_len < 0:
        raise StreamError(
            f"window-report buffer lengths exceed frame events "
            f"({n} events, fbuffer {f_len}, ebuffer {e_len})")
    buffer, at = decode_columns(view, at, buf_len)
    fbuffer: EventBatch | None = None
    ebuffer: EventBatch | None = None
    if f_len != _ABSENT:
        fbuffer, at = decode_columns(view, at, f_len)
    if e_len != _ABSENT:
        ebuffer, at = decode_columns(view, at, e_len)
    return LocalWindowReport(
        sender=sender, window_index=window_index, epoch=epoch,
        partial=partial, slice_count=slice_count, event_rate=event_rate,
        buffer=buffer, fbuffer=fbuffer, ebuffer=ebuffer,
        spec_start=spec_start, slice_start=slice_start,
        first_ts=first_ts, last_ts=last_ts), at


def _enc_front_buffer(msg: FrontBuffer, out: bytearray,
                      batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.spec_start)
    batches.append(msg.events)


def _dec_front_buffer(sender: str, r: _Reader, view: memoryview,
                      at: int, n: int) -> tuple[Message, int]:
    window_index = r.i()
    epoch = r.i()
    spec_start = r.i()
    events, at = decode_columns(view, at, n)
    return FrontBuffer(sender=sender, window_index=window_index,
                       epoch=epoch, spec_start=spec_start,
                       events=events), at


def _enc_correction_report(msg: CorrectionReport, out: bytearray,
                           batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.count)
    encode_partial(msg.partial, out)
    batches.append(msg.last_event)


def _dec_correction_report(sender: str, r: _Reader, view: memoryview,
                           at: int, n: int) -> tuple[Message, int]:
    window_index = r.i()
    epoch = r.i()
    count = r.i()
    partial = r.partial()
    last_event, at = decode_columns(view, at, n)
    return CorrectionReport(sender=sender, window_index=window_index,
                            epoch=epoch, partial=partial, count=count,
                            last_event=last_event), at


def _enc_window_assignment(msg: WindowAssignment, out: bytearray,
                           batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.predicted_size)
    out += _PACK_Q(msg.delta)
    out += _PACK_Q(msg.start_position)
    out += _PACK_Q(msg.release_before)
    out += _PACK_Q(msg.watermark)


def _dec_window_assignment(sender: str, r: _Reader, view: memoryview,
                           at: int, n: int) -> tuple[Message, int]:
    return WindowAssignment(
        sender=sender, window_index=r.i(), epoch=r.i(),
        predicted_size=r.i(), delta=r.i(), start_position=r.i(),
        release_before=r.i(), watermark=r.i()), at


def _enc_correction_request(msg: CorrectionRequest, out: bytearray,
                            batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.actual_size)
    out += _PACK_Q(msg.start_position)
    out += _PACK_Q(msg.watermark)


def _dec_correction_request(sender: str, r: _Reader, view: memoryview,
                            at: int, n: int) -> tuple[Message, int]:
    return CorrectionRequest(
        sender=sender, window_index=r.i(), epoch=r.i(),
        actual_size=r.i(), start_position=r.i(), watermark=r.i()), at


def _enc_start_window(msg: StartWindow, out: bytearray,
                      batches: list[EventBatch]) -> None:
    out += _PACK_Q(msg.window_index)
    out += _PACK_Q(msg.epoch)
    out += _PACK_Q(msg.watermark)


def _dec_start_window(sender: str, r: _Reader, view: memoryview,
                      at: int, n: int) -> tuple[Message, int]:
    return StartWindow(sender=sender, window_index=r.i(), epoch=r.i(),
                       watermark=r.i()), at


_ENCODERS: tuple[Callable[[Any, bytearray, list[EventBatch]], None],
                 ...] = (
    _enc_source_batch, _enc_raw_events, _enc_resend_request,
    _enc_rate_report, _enc_window_report, _enc_front_buffer,
    _enc_correction_report, _enc_window_assignment,
    _enc_correction_request, _enc_start_window)

_DECODERS: tuple[Callable[[str, _Reader, memoryview, int, int],
                          tuple[Message, int]], ...] = (
    _dec_source_batch, _dec_raw_events, _dec_resend_request,
    _dec_rate_report, _dec_window_report, _dec_front_buffer,
    _dec_correction_report, _dec_window_assignment,
    _dec_correction_request, _dec_start_window)
