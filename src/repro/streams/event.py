"""The event (tuple) model of the Deco data stream.

The paper models a stream as an infinite series of tuples
``t = (i, v, tau)`` with id ``i``, value ``v``, and timestamp
``tau in N+`` assigned by the data stream node (Section 3).  Timestamps
are integers (we use microseconds of stream time) and are monotonically
increasing per source.
"""

from __future__ import annotations

from typing import NamedTuple

#: Number of timestamp units per second of stream time.
TICKS_PER_SECOND = 1_000_000


class Event(NamedTuple):
    """A single stream tuple ``(id, value, timestamp)``.

    Attributes:
        id: Sequential id assigned by the producing data stream node.
        value: The measured payload value (e.g. a sensor reading).
        ts: Event timestamp in integer ticks (microseconds).
    """

    id: int
    value: float
    ts: int


def ticks_to_seconds(ticks: int) -> float:
    """Convert integer timestamp ticks back to seconds of stream time."""
    return ticks / TICKS_PER_SECOND

