"""Zero-copy binary wire codec (frame layout + message codec).

Layout constants and the partial/column helpers live in
:mod:`repro.wire.format`; the message codec proper lives in
:mod:`repro.wire.codec`.  The codec symbols are re-exported lazily:
:mod:`repro.sim.serialization` imports the layout from this package at
interpreter startup, and an eager ``codec`` import at that point would
re-enter ``repro.core.protocol`` while it is still initializing.
"""

from __future__ import annotations

from typing import Any

from repro.wire.format import (WIRE_EVENT_BYTES, WIRE_HEADER_BYTES,
                               WIRE_MAGIC, WIRE_SCALAR_BYTES,
                               WIRE_VERSION, frame_size,
                               partial_wire_slots, register_partial_type)

__all__ = [
    "WIRE_MAGIC", "WIRE_VERSION", "WIRE_HEADER_BYTES",
    "WIRE_SCALAR_BYTES", "WIRE_EVENT_BYTES", "frame_size",
    "partial_wire_slots", "register_partial_type",
    # lazily re-exported from repro.wire.codec:
    "MessageCodec", "encode_batch", "decode_batch",
]

_CODEC_EXPORTS = frozenset((
    "MessageCodec", "encode_batch", "decode_batch"))


def __getattr__(name: str) -> Any:
    if name in _CODEC_EXPORTS:
        from repro.wire import codec
        return getattr(codec, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
