"""Watermarks for event ordering and buffer eviction.

Deco "selects the timestamp of the last event in the global window as the
watermark.  When starting a new global window the root sends the
watermark to local nodes.  Local nodes drop all events that have
timestamps earlier than the watermark" (Section 4.3.4).  Root and
local nodes track the watermark here; no scheme drops late events yet.
"""

from __future__ import annotations

from repro.errors import StreamError


class WatermarkTracker:
    """Monotone watermark state shared by root and local nodes."""

    def __init__(self, initial: int = -1):
        self._watermark = int(initial)

    @property
    def current(self) -> int:
        """The current watermark timestamp (``-1`` before any advance)."""
        return self._watermark

    def advance(self, ts: int) -> int:
        """Advance the watermark to ``ts``.

        Watermarks never move backwards; advancing to an earlier
        timestamp raises :class:`~repro.errors.StreamError` because it
        indicates a protocol bug (a verified window ended before an
        already-verified one).
        """
        ts = int(ts)
        if ts < self._watermark:
            raise StreamError(
                f"watermark cannot regress from {self._watermark} to {ts}")
        self._watermark = ts
        return self._watermark
