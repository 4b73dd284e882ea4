"""Zero-copy binary message codec for the Deco protocol.

:class:`MessageCodec` turns every protocol message of
:mod:`repro.core.protocol` into one binary frame (layout in
:mod:`repro.wire.format`) and back.  Event payloads travel columnar —
``int64`` ids, ``float64`` values, ``int64`` timestamps packed straight
from the :class:`~repro.streams.batch.EventBatch` arrays — and decode
returns :class:`EventBatch` views over the received buffer via
``np.frombuffer``: no per-event objects, no column copies.

The simulator driver installs the codec on
:attr:`repro.sim.network.Network.codec`: every message through
:meth:`~repro.sim.network.Network.send` is frozen
(:meth:`MessageCodec.freeze`), charged its structural size and, when
its receiver handles it, encoded, checked against that charge (binary
formats) and delivered decoded; a fabric with ``codec = None``
delivers messages as-is.  Both paths are bit-identical in results,
flows, bytes, and determinism fingerprints: the codec frames a message from
the same :class:`~repro.core.protocol.Wire` declaration the model
sizes it from, so ``len(encode_message(msg)) == sizeof_message(msg,
BINARY)`` for every message (asserted in tests).

Sender names are interned per codec (dictionary encoding, one ``int32``
routing slot in the header); a real transport would replay the name
table during its handshake.  Truncated or corrupted buffers raise
:class:`~repro.errors.StreamError` — a CRC32 over the payload plus
strict length accounting means a damaged frame can never silently
misparse into a different valid message.

A hop that only routes a message reads its :func:`read_envelope`: the
same checks, the message kind, its counts and its window, and the
modelled size — without building the message.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from repro.core.protocol import MESSAGE_TYPES, Message, Wire
from repro.errors import StreamError
from repro.runtime.serialization import WireFormat, message_size
from repro.streams.batch import EventBatch
from repro.wire.format import (HEADER_STRUCT, WIRE_HEADER_BYTES,
                               WIRE_MAGIC, WIRE_SCALAR_BYTES,
                               WIRE_VERSION, append_columns,
                               decode_columns, decode_partial,
                               encode_partial, frame_size,
                               freeze_partial)

#: Frame type id of the bare-batch frame; protocol messages take their
#: index in :data:`~repro.core.protocol.MESSAGE_TYPES` plus one.
FRAME_BATCH = 0

#: Per message type: its frame type id, its wire declaration and the
#: precompiled packer of its whole fixed scalar run (the declared
#: slots, then one int64 length slot per optional batch).
_LAYOUTS: dict[type, tuple[int, Wire, struct.Struct]] = {
    cls: (i + 1, cls.WIRE, struct.Struct(
        "<" + cls.WIRE.kinds + "q" * len(cls.WIRE.optional)))
    for i, cls in enumerate(MESSAGE_TYPES)}


def _layout(msg: Message) -> tuple[int, Wire, struct.Struct]:
    """``msg``'s entry in :data:`_LAYOUTS`, or a :class:`StreamError`."""
    try:
        return _LAYOUTS[type(msg)]
    except KeyError:
        raise StreamError(
            f"no wire frame for message type "
            f"{type(msg).__name__}") from None


#: The int64 ``window_index`` slot: its unpacker, and its byte offset
#: in the frame of each message type that declares one.
_WINDOW_SLOT = struct.Struct("<q")
_WINDOW_AT: dict[type, int] = {
    cls: WIRE_HEADER_BYTES
    + WIRE_SCALAR_BYTES * cls.WIRE.slots.index("window_index")
    for cls in MESSAGE_TYPES if "window_index" in cls.WIRE.slots}

#: No-sender sentinel for bare batch frames.
_NO_SENDER = -1

#: Length slot sentinel for an absent optional batch (`None`), as
#: opposed to a present-but-empty one (0).
_ABSENT = -1


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
        #: Whether a frame's length is its modelled size: true for
        #: binary formats, whose structural model derives from the
        #: frame layout.  The simulator's fabric charges every link the
        #: model and, when this is set, checks each frame it opens at
        #: handle time against that charge; the string-modelled Disco
        #: baseline is charged its model and still round-trips binary.
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

    def freeze(self, msg: Message) -> None:
        """Make every array ``msg`` carries read-only, in place.

        Its event batches' columns (optional batches too) and any
        ndarray in its partial.  The simulator's fabric freezes a
        message when it is sent and codes it only when its receiver
        handles it, so a sender that writes into a sent array fails at
        the write instead of changing the bits the receiver decodes.
        Raises :class:`StreamError` for a kind with no frame, as
        :meth:`encode_message` does.
        """
        _, wire, _ = _layout(msg)
        for name in (wire.batch, *wire.optional):
            batch = getattr(msg, name) if name else None
            if batch is not None:
                for column in (batch.ids, batch.values, batch.ts):
                    column.flags.writeable = False
        if wire.partial is not None:
            freeze_partial(getattr(msg, wire.partial))

    def encode_message(self, msg: Message) -> bytes:
        """One binary frame holding ``msg``, columns packed zero-copy."""
        msgtype, wire, packer = _layout(msg)
        values = [getattr(msg, name) for name in wire.slots]
        batches = [] if wire.batch is None else [getattr(msg, wire.batch)]
        for name in wire.optional:
            batch = getattr(msg, name)
            if batch is None:
                values.append(_ABSENT)
            else:
                values.append(len(batch))
                batches.append(batch)
        scalars = packer.pack(*values)
        if wire.partial is not None:
            scalars = bytearray(scalars)
            encode_partial(getattr(msg, wire.partial), scalars)
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
        cls, sender_id, view, scalars_end, n_events = \
            _parse_message_header(buf)
        _, wire, packer = _LAYOUTS[cls]
        sender = self._sender_name(sender_id)
        at = WIRE_HEADER_BYTES + packer.size
        values = packer.unpack_from(view, WIRE_HEADER_BYTES)
        fields = dict(zip(wire.slots, values))
        if wire.partial is not None:
            fields[wire.partial], at = decode_partial(view, at,
                                                      scalars_end)
        lengths = values[len(wire.slots):]
        claimed = 0
        for length in lengths:
            if length < _ABSENT:
                raise StreamError(
                    f"{cls.__name__} optional-batch length slots "
                    f"{lengths}: each must be {_ABSENT} (absent) or a "
                    f"count")
            claimed += max(length, 0)
        if claimed > n_events or (wire.batch is None
                                  and claimed != n_events):
            raise StreamError(
                f"{cls.__name__} frame carries {n_events} events but "
                f"its declared batches account for {claimed}")
        col_at = scalars_end
        if wire.batch is not None:
            fields[wire.batch], col_at = decode_columns(
                view, col_at, n_events - claimed)
        for name, length in zip(wire.optional, lengths):
            if length == _ABSENT:
                fields[name] = None
            else:
                fields[name], col_at = decode_columns(view, col_at, length)
        _scalars_done(at, scalars_end)
        if col_at != len(buf):
            raise StreamError("frame length mismatch after columns")
        return cls(sender, **fields)

    # -- introspection -----------------------------------------------------

    def __repr__(self) -> str:
        return (f"MessageCodec(fmt={self.fmt.value!r}, "
                f"frames={self.frames_encoded})")


# -- envelopes -----------------------------------------------------------------

class Envelope(NamedTuple):
    """One checked protocol-message frame and what its envelope says.

    Everything a hop that only routes the message needs — its kind, its
    window and its modelled size — read without building the message,
    so the frame can be forwarded as the very bytes its sender encoded.
    """

    frame: bytes | memoryview
    message_type: type[Message]
    n_events: int
    n_scalars: int
    #: The ``window_index`` slot, when the kind declares one.
    window_index: int | None

    def size(self, fmt: WireFormat) -> int:
        """The message's modelled wire size, ``sizeof_message(msg,
        fmt)`` of the message the frame holds (0 for a free kind)."""
        if self.message_type.WIRE.free:
            return 0
        return message_size(self.n_events, self.n_scalars, fmt)


def read_envelope(buf: bytes | memoryview) -> Envelope:
    """Check one protocol-message frame's envelope and read it.

    The same checks :meth:`MessageCodec.decode_message` starts with —
    length, magic, version, length accounting, CRC32, a known message
    type and a whole fixed scalar run — so a frame this accepts has
    its sender's exact bytes.  Raises :class:`StreamError` otherwise.
    """
    cls, _, view, scalars_end, n_events = _parse_message_header(buf)
    at = _WINDOW_AT.get(cls)
    window = (None if at is None
              else _WINDOW_SLOT.unpack_from(view, at)[0])
    return Envelope(buf, cls, n_events,
                    (scalars_end - WIRE_HEADER_BYTES) // WIRE_SCALAR_BYTES,
                    window)


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
    msgtype, _, view, col_at, n_events = _parse_header(buf)
    if msgtype != FRAME_BATCH:
        raise StreamError(
            f"expected a batch frame, got frame type {msgtype}")
    _scalars_done(WIRE_HEADER_BYTES, col_at)
    batch, col_at = decode_columns(view, col_at, n_events)
    if col_at != len(buf):
        raise StreamError("frame length mismatch after columns")
    return batch


def _scalars_done(at: int, end: int) -> None:
    """Assert the scalar section was consumed exactly."""
    if at != end:
        raise StreamError(
            f"scalar section length mismatch: {end - at} bytes left "
            f"after decode")


def _parse_message_header(
        buf: bytes | memoryview
) -> tuple[type[Message], int, memoryview, int, int]:
    """:func:`_parse_header` for a protocol message: also checks the
    frame type names one and that its fixed scalar run is whole;
    returns the message class in place of the frame type."""
    msgtype, sender_id, view, scalars_end, n_events = _parse_header(buf)
    if msgtype == FRAME_BATCH or msgtype > len(MESSAGE_TYPES):
        raise StreamError(f"unexpected frame type {msgtype} for a "
                          f"protocol message")
    cls = MESSAGE_TYPES[msgtype - 1]
    if WIRE_HEADER_BYTES + _LAYOUTS[cls][2].size > scalars_end:
        raise StreamError("truncated scalar section")
    return cls, sender_id, view, scalars_end, n_events


def _parse_header(
        buf: bytes | memoryview) -> tuple[int, int, memoryview, int, int]:
    """Validate one frame's envelope; returns its parsed geometry
    (frame type, sender id, view, end of the scalar section, events).

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
    return msgtype, sender_id, view, scalars_end, n_events
