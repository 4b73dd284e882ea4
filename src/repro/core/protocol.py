"""Protocol messages exchanged between root and local nodes.

The communication model (Section 3) is single-direction *flows*:
up-flows carry raw events, partial results, and event rates from local
nodes to the root; down-flows carry window assignments (types, measures,
sizes, deltas, watermarks) from the root to local nodes.

Every message carries exactly one :class:`Wire` declaration, next to
its dataclass: the frame layout :mod:`repro.wire.codec` encodes and
decodes it with, and the content :func:`sizeof_message` sizes it from,
in the system's wire format (binary for everything except the Disco
baseline, which uses strings).  Adding a message is one dataclass, one
declaration and one :data:`MESSAGE_TYPES` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any, ClassVar

from repro.runtime.serialization import WireFormat, message_size
from repro.streams.batch import EventBatch
from repro.wire.format import partial_wire_slots


@dataclass(frozen=True)
class Wire:
    """The wire layout of one message kind, in frame order.

    The scalar section is the fixed ``slots`` (``kinds`` gives one
    struct code per slot: ``q`` int64, ``d`` float64), then one int64
    length slot per ``optional`` batch (``-1`` = absent, as opposed to
    present but empty), then the tagged encoding of the ``partial``
    field, if one is named.  The event columns are the ``batch``
    field, which holds whatever the frame's event count leaves after
    the optional lengths, then each present ``optional`` batch.
    """

    kinds: str = ""
    slots: tuple[str, ...] = ()
    partial: str | None = None
    batch: str | None = None
    optional: tuple[str, ...] = ()
    #: Modelled at zero bytes (still framed when it meets a codec).
    free: bool = False

    def __post_init__(self) -> None:
        if (len(self.kinds) != len(self.slots)
                or not set(self.kinds) <= set("qd")):
            raise ValueError(f"bad slot declaration {self.kinds!r} for "
                             f"{self.slots}")


@dataclass(frozen=True)
class Message:
    """Base class; every message names its sender and declares its
    wire layout."""

    sender: str
    WIRE: ClassVar[Wire]


# -- source injection (data stream node -> local node, zero network cost) --

@dataclass(frozen=True)
class SourceBatch(Message):
    """Events produced by the data generator co-located with a local
    node.  Arrives via the kernel, not the network fabric, because the
    generator runs on the node itself (Section 5, Data Generators)."""

    events: EventBatch

    # Free on the wire because the generator is co-located.
    WIRE: ClassVar[Wire] = Wire(batch="events", free=True)


# -- up-flows ----------------------------------------------------------------

@dataclass(frozen=True)
class RawEvents(Message):
    """Raw forwarded events (centralized aggregation / Deco init).

    ``start`` is the absolute stream position of the first event;
    ``-1`` for fire-and-forget forwarding (Central), >= 0 for the Deco
    bootstrap, whose root detects gaps from dropped messages and asks
    for a resend (failure model, Section 4.3.4).
    """

    window_index: int
    events: EventBatch
    start: int = -1

    WIRE: ClassVar[Wire] = Wire("qq", ("window_index", "start"),
                                batch="events")


@dataclass(frozen=True)
class ResendRequest(Message):
    """Down-flow NACK: re-send raw events from ``from_position``."""

    from_position: int

    WIRE: ClassVar[Wire] = Wire("q", ("from_position",))


@dataclass(frozen=True)
class RateReport(Message):
    """Measured event rate (Deco_mon initialization step)."""

    window_index: int
    event_rate: float
    events_seen: int

    WIRE: ClassVar[Wire] = Wire(
        "qdq", ("window_index", "event_rate", "events_seen"))


@dataclass(frozen=True)
class LocalWindowReport(Message):
    """The single up-flow of Deco_sync / Deco_async calculation steps:
    partial result of the local slice, raw buffer contents, the measured
    event rate, and the slice statistics (count, first/last timestamps,
    Section 4.2.2)."""

    window_index: int
    epoch: int
    partial: Any
    slice_count: int
    event_rate: float
    buffer: EventBatch = field(default_factory=EventBatch.empty)
    fbuffer: EventBatch | None = None
    ebuffer: EventBatch | None = None
    #: Absolute position in the sender's stream where this window's
    #: coverage starts (the speculative start for Deco_async).
    spec_start: int = -1
    #: Absolute position where the slice starts (== ``spec_start`` when
    #: there is no front buffer).
    slice_start: int = -1
    first_ts: int = -1
    last_ts: int = -1

    WIRE: ClassVar[Wire] = Wire(
        "qqqdqqqq",
        ("window_index", "epoch", "slice_count", "event_rate",
         "spec_start", "slice_start", "first_ts", "last_ts"),
        partial="partial", batch="buffer", optional=("fbuffer", "ebuffer"))


@dataclass(frozen=True)
class FrontBuffer(Message):
    """Deco_async: the speculative window's front buffer, shipped as
    soon as it fills (it is the first region the window consumes).

    The paper bundles it with the window report (Algorithm 4); shipping
    it eagerly is an implementation refinement that lets the root
    complete the *previous* window's tail without waiting a full window
    — the front buffer's entire purpose is "to make room for prediction
    error" at the boundary (Section 4.2.3).
    """

    window_index: int
    epoch: int
    spec_start: int
    events: EventBatch

    WIRE: ClassVar[Wire] = Wire(
        "qqq", ("window_index", "epoch", "spec_start"), batch="events")


@dataclass(frozen=True)
class CorrectionReport(Message):
    """Correction-step up-flow: the partial over the *actual* local
    window plus the last event (the actual sizes come from rates and
    "may or may not belong to the global window", Section 4.3.1)."""

    window_index: int
    epoch: int
    partial: Any
    count: int
    last_event: EventBatch

    WIRE: ClassVar[Wire] = Wire(
        "qqq", ("window_index", "epoch", "count"), partial="partial",
        batch="last_event")


# -- down-flows ---------------------------------------------------------------

@dataclass(frozen=True)
class WindowAssignment(Message):
    """Prediction-step down-flow: predicted size and delta (Deco_sync /
    Deco_async), or the actual size with ``delta == 0`` (Deco_mon).
    Carries the watermark of the previous global window."""

    window_index: int
    epoch: int
    predicted_size: int
    delta: int
    #: Absolute stream position where the window starts (the previous
    #: window's actual end); ``-1`` when the node keeps its own position
    #: (Deco_async speculation).
    start_position: int = -1
    #: Verified position before which the node may drop events
    #: (watermark-driven eviction, Section 4.3.4).
    release_before: int = -1
    watermark: int = -1

    WIRE: ClassVar[Wire] = Wire(
        "qqqqqqq",
        ("window_index", "epoch", "predicted_size", "delta",
         "start_position", "release_before", "watermark"))


@dataclass(frozen=True)
class CorrectionRequest(Message):
    """Correction-step down-flow: the actual local window size for the
    mispredicted window; informs the node its prediction was wrong."""

    window_index: int
    epoch: int
    actual_size: int
    #: Absolute stream position where the mispredicted window starts.
    start_position: int = -1
    watermark: int = -1

    WIRE: ClassVar[Wire] = Wire(
        "qqqqq", ("window_index", "epoch", "actual_size",
                  "start_position", "watermark"))


@dataclass(frozen=True)
class StartWindow(Message):
    """Verification-complete signal: the local node may start its next
    window (the blocking ack of the synchronous schemes)."""

    window_index: int
    epoch: int
    watermark: int = -1

    WIRE: ClassVar[Wire] = Wire(
        "qqq", ("window_index", "epoch", "watermark"))


#: Every protocol message, in frame-type order: a message's wire type id
#: is its index here plus one (0 is the bare-batch frame), so entries are
#: appended, never reordered.
MESSAGE_TYPES: tuple[type[Message], ...] = (
    SourceBatch, RawEvents, ResendRequest, RateReport,
    LocalWindowReport, FrontBuffer, CorrectionReport, WindowAssignment,
    CorrectionRequest, StartWindow)


def wire_of(msg: Message) -> Wire:
    """The wire declaration of a registered message."""
    cls = type(msg)
    if cls not in MESSAGE_TYPES:
        raise TypeError(f"unknown message type {cls.__name__}")
    return cls.WIRE


def raw_event_count(msg: Message) -> int:
    """Raw events a message carries, over all its batches."""
    wire = wire_of(msg)
    total = 0 if wire.batch is None else len(getattr(msg, wire.batch))
    for name in wire.optional:
        batch = getattr(msg, name)
        if batch is not None:
            total += len(batch)
    return total


def sizeof_message(msg: Message,
                   fmt: WireFormat = WireFormat.BINARY) -> int:
    """Structural wire size of a protocol message.

    Counted from the same :class:`Wire` declaration the codec frames
    the message with (partials through the shared
    :func:`repro.wire.format.partial_wire_slots`), so for binary
    formats ``sizeof_message(msg) == len(codec.encode_message(msg))``
    exactly — a property pinned by the wire tests and CI gate.
    """
    wire = wire_of(msg)
    if wire.free:
        return 0
    n_scalars = len(wire.slots) + len(wire.optional)
    if wire.partial is not None:
        n_scalars += partial_wire_slots(getattr(msg, wire.partial))
    return message_size(n_events=raw_event_count(msg),
                        n_scalars=n_scalars, fmt=fmt)


def make_sizer(
        fmt: WireFormat = WireFormat.BINARY) -> Callable[[Any], int]:
    """A ``msg -> bytes`` sizer bound to one wire format."""
    return lambda msg: sizeof_message(msg, fmt)


def trace_fields(msg: Message) -> dict:
    """Identifying fields of a message for trace-event payloads.

    Always includes the class name; window/epoch ride along when the
    message carries them, so retransmit and state events can name the
    exact protocol round they belong to.
    """
    out = {"msg": type(msg).__name__}
    window = getattr(msg, "window_index", None)
    if window is not None:
        out["window"] = window
    epoch = getattr(msg, "epoch", None)
    if epoch is not None:
        out["epoch"] = epoch
    return out
