"""Wire-format size models.

Network utilization in the evaluation depends on what is shipped and how
it is encoded.  The paper notes that "the network cost of Disco is higher
than Central and Scotty because it uses strings to send events and
messages" (Section 5.1); we model that with two wire formats:

* ``BINARY`` — fixed-width fields: 8-byte id + 8-byte value + 8-byte
  timestamp per event (24 B), small fixed header per message.
* ``STRING`` — decimal text with separators; an event like
  ``"123456789,12.3456,1699999999999999\\n"`` averages ~3x the binary
  encoding.

Sizes are what a real implementation of each system would put on the
wire, which is all the network-utilization experiments measure.  The
binary constants are not hand-maintained: they are the actual framed
sizes of :mod:`repro.wire.format`, the codec that really encodes
every message on the simulated message path — so the model cannot
drift from real bytes.  The string
format is modelled as a uniform 3x expansion of the same structure
(decimal text plus separators for every 8-byte field).
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError
from repro.wire.format import (WIRE_EVENT_BYTES, WIRE_HEADER_BYTES,
                               WIRE_SCALAR_BYTES)


class WireFormat(enum.Enum):
    """Message encoding used by a system."""

    BINARY = "binary"
    STRING = "string"


#: Decimal text with separators averages ~3x the fixed-width encoding.
_STRING_EXPANSION = 3

#: Bytes for one event record (id, value, ts).
EVENT_BYTES = {WireFormat.BINARY: WIRE_EVENT_BYTES,
               WireFormat.STRING: _STRING_EXPANSION * WIRE_EVENT_BYTES}

#: Fixed per-message envelope (type tag, lengths, routing).
HEADER_BYTES = {WireFormat.BINARY: WIRE_HEADER_BYTES,
                WireFormat.STRING: _STRING_EXPANSION * WIRE_HEADER_BYTES}

#: One scalar field (a partial aggregate component, a window size, a
#: rate, a watermark...).
SCALAR_BYTES = {WireFormat.BINARY: WIRE_SCALAR_BYTES,
                WireFormat.STRING: _STRING_EXPANSION * WIRE_SCALAR_BYTES}


def event_payload_size(n_events: int,
                       fmt: WireFormat = WireFormat.BINARY) -> int:
    """Wire size of ``n_events`` raw event records (payload only)."""
    if n_events < 0:
        raise ConfigurationError(f"n_events must be >= 0, got {n_events}")
    return n_events * EVENT_BYTES[fmt]


def message_size(n_events: int = 0, n_scalars: int = 0,
                 fmt: WireFormat = WireFormat.BINARY) -> int:
    """Total wire size of one message.

    Args:
        n_events: Raw event records carried (buffer contents, forwarded
            events).
        n_scalars: Scalar fields carried (partial aggregates, window
            sizes, deltas, event rates, statistics).
        fmt: Encoding.
    """
    if n_scalars < 0:
        raise ConfigurationError(f"n_scalars must be >= 0, got {n_scalars}")
    if n_events < 0:
        raise ConfigurationError(f"n_events must be >= 0, got {n_events}")
    header, event, scalar = _MODEL[fmt]
    return header + n_events * event + n_scalars * scalar


#: ``(header, event, scalar)`` bytes per format, read once per message.
_MODEL = {fmt: (HEADER_BYTES[fmt], EVENT_BYTES[fmt], SCALAR_BYTES[fmt])
          for fmt in WireFormat}
