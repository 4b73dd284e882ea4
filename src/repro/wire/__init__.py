"""Zero-copy binary wire codec (frame layout + message codec).

Layout constants and the partial/column helpers live in
:mod:`repro.wire.format` and are re-exported here; the message codec
proper is :mod:`repro.wire.codec`, imported by its full name
(:mod:`repro.runtime.serialization` imports the layout while
``repro.core.protocol`` — which the codec needs — is still
initializing, so this package cannot import the codec eagerly).
"""

from __future__ import annotations

from repro.wire.format import (WIRE_EVENT_BYTES, WIRE_HEADER_BYTES,
                               WIRE_MAGIC, WIRE_SCALAR_BYTES,
                               WIRE_VERSION, frame_size,
                               partial_wire_slots, register_partial_type)

__all__ = [
    "WIRE_MAGIC", "WIRE_VERSION", "WIRE_HEADER_BYTES",
    "WIRE_SCALAR_BYTES", "WIRE_EVENT_BYTES", "frame_size",
    "partial_wire_slots", "register_partial_type",
]
