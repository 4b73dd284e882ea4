"""Scotty-style stream slicing with partial-aggregate sharing.

Scotty [60] splits the stream into non-overlapping *slices*, partially
aggregates each slice once, and assembles every (possibly overlapping)
window from slice partials — so "partial results between concurrent
windows" are shared "to reduce memory usage and avoid duplicate
processing of a single event" (Section 5, Evaluated Approaches).

For count measures the slice size is ``gcd(length, step)``; each sliding
window is then a contiguous run of ``length / gcd`` slices.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Deque

from repro.aggregates.base import AggregateFunction
from repro.streams.batch import EventBatch
from repro.windows.base import SlidingCountWindow, TumblingCountWindow


@dataclass(frozen=True)
class WindowResult:
    """An emitted window aggregate."""

    window_index: int
    result: float
    count: int


class CountSlicer:
    """Slicing aggregator for (tumbling or sliding) count windows.

    Tumbling windows are treated as sliding windows with
    ``step == length`` (a single slice per window).
    """

    def __init__(self, spec: TumblingCountWindow | SlidingCountWindow,
                 fn: AggregateFunction) -> None:
        spec.validate()
        if isinstance(spec, TumblingCountWindow):
            self.length, self.step = spec.length, spec.length
        else:
            self.length, self.step = spec.length, spec.step
        self.fn = fn
        self.slice_size = math.gcd(self.length, self.step)
        self.slices_per_window = self.length // self.slice_size
        self.slices_per_step = self.step // self.slice_size
        # Completed slice partials, oldest first; _first_slice is the
        # absolute index of slices[0].
        self._slices: Deque = deque()
        self._first_slice = 0
        self._next_window = 0
        # The open (incomplete) slice.
        self._open_partial = fn.identity()
        self._open_count = 0
        # Statistics: every event is lifted exactly once; each window
        # emission combines slices_per_window partials.
        self.events_lifted = 0
        self.partial_combines = 0

    def add(self, batch: EventBatch) -> list[WindowResult]:
        """Feed a batch; return every window it completes, in order."""
        out: list[WindowResult] = []
        while len(batch):
            need = self.slice_size - self._open_count
            head, batch = batch.split(need)
            if len(head):
                self._open_partial = self.fn.combine(
                    self._open_partial, self.fn.lift(head))
                self._open_count += len(head)
                self.events_lifted += len(head)
            if self._open_count == self.slice_size:
                self._slices.append(self._open_partial)
                self._open_partial = self.fn.identity()
                self._open_count = 0
                out.extend(self._emit_ready())
        return out

    def _emit_ready(self) -> list[WindowResult]:
        """Emit every window whose slices are all complete."""
        out: list[WindowResult] = []
        while True:
            start = self._next_window * self.slices_per_step
            end = start + self.slices_per_window
            if end > self._first_slice + len(self._slices):
                break
            partial = self.fn.identity()
            for i in range(start - self._first_slice,
                           end - self._first_slice):
                partial = self.fn.combine(partial, self._slices[i])
                self.partial_combines += 1
            out.append(WindowResult(self._next_window,
                                    self.fn.lower(partial),
                                    self.length))
            self._next_window += 1
            # Evict slices no future window references.
            keep_from = self._next_window * self.slices_per_step
            while self._first_slice < keep_from and self._slices:
                self._slices.popleft()
                self._first_slice += 1
        return out


def union_slice_size(
        specs: Iterable[TumblingCountWindow | SlidingCountWindow]) -> int:
    """Shared slice size for a *set* of count windows: the gcd of every
    registered length and step, so all windows' edges fall on slice
    boundaries (the union of the windows' edges is a subset of the
    slice grid).  Scotty's per-query ``gcd(length, step)`` generalizes
    to this when many standing queries share one stream; the
    multi-query engine reports it as each group's ``slice_grid``.
    Returns 0 for an empty set (``gcd`` identity).
    """
    g = 0
    for spec in specs:
        step = (spec.step if isinstance(spec, SlidingCountWindow)
                else spec.length)
        g = math.gcd(g, math.gcd(spec.length, step))
    return g

