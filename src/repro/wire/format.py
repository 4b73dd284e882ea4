"""Binary wire-format layout: the single source of truth for sizes.

The paper makes serialization a first-class evaluation point (Disco's
~3x string-bytes penalty, Section 5.1), so the reproduction's byte
accounting must not drift from what a real implementation would put on
the wire.  This module defines the *actual* frame layout — the header
struct, the 8-byte scalar slot, the 24-byte columnar event record, and
the tagged partial-aggregate encoding — and exports the framed sizes
that :mod:`repro.runtime.serialization` derives its size model from.
The codec in :mod:`repro.wire.codec` and the structural sizer in
:mod:`repro.core.protocol` both compute sizes through the helpers here,
so a frame's ``len()`` and its modelled size cannot disagree.

Frame layout (little-endian)::

    +--------------------------- header, 32 B ---------------------------+
    | magic "DW" | ver u8 | type u8 | n_scalars u32 | sender i32 |       |
    | n_events i64 | payload_len i64 | crc32 u32                        |
    +------------------------ payload -----------------------------------+
    | scalar slots: n_scalars x 8 B  (int64 'q' or float64 'd' per slot)|
    | event columns, per batch: ids i64[n] | values f64[n] | ts i64[n]  |
    +--------------------------------------------------------------------+

Every scalar occupies exactly one 8-byte slot and every event exactly
24 bytes (three 8-byte columns), which is what makes the size model
``header + 24 * n_events + 8 * n_scalars`` exact.  Columns start at
``32 + 8 * n_scalars`` — always 8-byte aligned, so decoded
``np.frombuffer`` views are aligned zero-copy array views over the
received buffer.

Partial aggregates are encoded as tagged slot runs: one descriptor slot
``(tag << 48) | count`` followed by the payload slots.  Tuple partials
(e.g. avg's ``(sum, count)``) round-trip through a small named-type
registry so decode reconstructs the exact ``NamedTuple`` class the
aggregate's ``combine`` expects.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.errors import StreamError
from repro.streams.batch import ID_DTYPE, TS_DTYPE, VALUE_DTYPE, EventBatch

#: First bytes of every frame.
WIRE_MAGIC = b"DW"
#: Bumped on any layout change so stale frames never misparse.
WIRE_VERSION = 1

#: The frame header: magic, version, message type, scalar count,
#: interned sender id, event count, payload length, payload CRC32.
HEADER_STRUCT = struct.Struct("<2sBBIiqqI")

#: Framed size of the fixed per-message envelope.
WIRE_HEADER_BYTES = HEADER_STRUCT.size
#: Framed size of one scalar slot (partial component, position, rate...).
WIRE_SCALAR_BYTES = 8
#: Framed size of one event record (id + value + ts columns).
WIRE_EVENT_BYTES = 24

assert WIRE_HEADER_BYTES == 32
assert WIRE_EVENT_BYTES == 3 * WIRE_SCALAR_BYTES

_SLOT_I = struct.Struct("<q")
_SLOT_F = struct.Struct("<d")

# -- partial-aggregate slot encoding ------------------------------------------

#: Descriptor tags (high 16 bits of the descriptor slot).
TAG_NONE = 0
TAG_FLOAT = 1
TAG_INT = 2
TAG_TUPLE = 3
TAG_F64_ARRAY = 4
TAG_I64_ARRAY = 5
#: Tags at and above this value address the named-tuple registry.
TAG_NAMED_BASE = 16

_COUNT_MASK = (1 << 48) - 1

# Import-time registry of named partial types (avg's SumCount, the
# moment tuples of variance/stddev).  Written only at import, read on
# every encode/decode.
_NAMED_TYPES: list[type] = []
_NAMED_TAGS: dict[type, int] = {}


def register_partial_type(cls: type) -> type:
    """Register a ``NamedTuple`` partial class for wire round-trips.

    Registration order defines the type's wire tag, so it must happen
    at import time (deterministic across processes).  Returns ``cls``
    so it can be used as a decorator.
    """
    if cls not in _NAMED_TAGS:
        _NAMED_TAGS[cls] = TAG_NAMED_BASE + len(_NAMED_TYPES)
        _NAMED_TYPES.append(cls)
    return cls


def _register_builtin_partials() -> None:
    # Lazy-bodied, eager-called: keeps the aggregate import out of the
    # module's import-time dependency surface for tools that only need
    # the layout constants.
    from repro.aggregates.algebraic import Moments, SumCount
    register_partial_type(SumCount)
    register_partial_type(Moments)


_register_builtin_partials()


def partial_wire_slots(partial: Any) -> int:
    """Number of 8-byte slots the tagged partial encoding occupies.

    Shared by the codec (to build frames) and by
    :func:`repro.core.protocol.sizeof_message` (to size them without
    encoding), which is what keeps modelled and framed sizes equal.
    """
    if partial is None:
        return 1
    if isinstance(partial, float):
        return 2
    if isinstance(partial, (int, np.integer)):
        return 2
    if isinstance(partial, tuple):
        return 1 + sum(partial_wire_slots(p) for p in partial)
    if isinstance(partial, np.ndarray):
        if partial.ndim != 1 or partial.dtype not in (np.float64,
                                                      np.int64):
            raise StreamError(
                f"unencodable partial array (dtype {partial.dtype}, "
                f"ndim {partial.ndim}); wire partials are 1-d "
                f"float64/int64")
        return 1 + len(partial)
    raise StreamError(
        f"unencodable partial type {type(partial).__name__}; register "
        f"NamedTuple partials with repro.wire.format.register_partial_type")


def encode_partial(partial: Any, out: bytearray) -> None:
    """Append the tagged slot encoding of ``partial`` to ``out``."""
    if partial is None:
        out += _SLOT_I.pack(TAG_NONE << 48)
    elif isinstance(partial, float):
        out += _SLOT_I.pack(TAG_FLOAT << 48)
        out += _SLOT_F.pack(partial)
    elif isinstance(partial, (int, np.integer)):
        out += _SLOT_I.pack(TAG_INT << 48)
        out += _SLOT_I.pack(int(partial))
    elif isinstance(partial, tuple):
        tag = _NAMED_TAGS.get(type(partial), TAG_TUPLE)
        out += _SLOT_I.pack((tag << 48) | len(partial))
        for item in partial:
            encode_partial(item, out)
    elif isinstance(partial, np.ndarray):
        partial_wire_slots(partial)  # validate dtype/shape
        tag = (TAG_F64_ARRAY if partial.dtype == np.float64
               else TAG_I64_ARRAY)
        out += _SLOT_I.pack((tag << 48) | len(partial))
        out += np.ascontiguousarray(partial).tobytes()
    else:
        partial_wire_slots(partial)  # raises with the guidance message


def freeze_partial(partial: Any) -> None:
    """Make every ndarray in ``partial`` (tuples walked) read-only."""
    if isinstance(partial, np.ndarray):
        partial.flags.writeable = False
    elif isinstance(partial, tuple):
        for item in partial:
            freeze_partial(item)


def decode_partial(view: memoryview, offset: int,
                   end: int) -> tuple[Any, int]:
    """Decode one tagged partial at ``offset``; returns (partial, next).

    ``end`` bounds the scalar section; any descriptor that would read
    past it raises :class:`StreamError` (truncation can never misparse
    into a shorter valid partial).
    """
    if offset + 8 > end:
        raise StreamError("truncated partial descriptor")
    (descriptor,) = _SLOT_I.unpack_from(view, offset)
    offset += 8
    tag = descriptor >> 48
    count = descriptor & _COUNT_MASK
    if tag == TAG_NONE:
        return None, offset
    if tag == TAG_FLOAT:
        if offset + 8 > end:
            raise StreamError("truncated float partial")
        return _SLOT_F.unpack_from(view, offset)[0], offset + 8
    if tag == TAG_INT:
        if offset + 8 > end:
            raise StreamError("truncated int partial")
        return _SLOT_I.unpack_from(view, offset)[0], offset + 8
    if tag in (TAG_F64_ARRAY, TAG_I64_ARRAY):
        nbytes = 8 * count
        if offset + nbytes > end:
            raise StreamError("truncated array partial")
        dtype = np.float64 if tag == TAG_F64_ARRAY else np.int64
        arr = np.frombuffer(view, dtype, count, offset)
        return arr, offset + nbytes
    if tag == TAG_TUPLE or tag >= TAG_NAMED_BASE:
        items = []
        for _ in range(count):
            item, offset = decode_partial(view, offset, end)
            items.append(item)
        if tag == TAG_TUPLE:
            return tuple(items), offset
        idx = tag - TAG_NAMED_BASE
        if idx >= len(_NAMED_TYPES):
            raise StreamError(
                f"unknown named-partial tag {tag}; sender registered "
                f"more partial types than this decoder")
        return _NAMED_TYPES[idx](*items), offset
    raise StreamError(f"unknown partial tag {tag}")


# -- event columns -------------------------------------------------------------

def append_columns(batch: EventBatch, parts: list[bytes]) -> None:
    """Append one batch's three column byte blocks to ``parts``."""
    if len(batch) == 0:
        return
    parts.append(np.ascontiguousarray(batch.ids).tobytes())
    parts.append(np.ascontiguousarray(batch.values).tobytes())
    parts.append(np.ascontiguousarray(batch.ts).tobytes())


def decode_columns(view: memoryview, offset: int,
                   n: int) -> tuple[EventBatch, int]:
    """Zero-copy batch decode at ``offset``; returns (batch, next).

    The returned batch's columns are read-only ``np.frombuffer`` views
    over the received buffer — no per-event objects, no copies.  The
    caller validates total payload length; this only advances.
    """
    if n == 0:
        return EventBatch.empty(), offset
    nbytes = 8 * n
    ids = np.frombuffer(view, ID_DTYPE, n, offset)
    values = np.frombuffer(view, VALUE_DTYPE, n, offset + nbytes)
    ts = np.frombuffer(view, TS_DTYPE, n, offset + 2 * nbytes)
    return EventBatch._view(ids, values, ts), offset + 3 * nbytes


def frame_size(n_events: int, n_scalars: int) -> int:
    """Exact framed size of a message with the given content."""
    return (WIRE_HEADER_BYTES + WIRE_EVENT_BYTES * n_events
            + WIRE_SCALAR_BYTES * n_scalars)
