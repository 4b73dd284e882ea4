"""Position-addressed event buffers for local nodes and the root.

Both sides of the protocol reason about *positions* in a node's stream:
the local node tracks where each window/slice starts, the root tracks
which raw positions it holds in its buffers.  ``PositionBuffer`` stores
contiguous event runs addressed by absolute stream position, supports
range extraction, and releases verified prefixes (the paper's bounded
memory argument, Sections 4.3.1-4.3.2).

When bound to an aggregate function, the buffer also holds a
:class:`~repro.core.agg_index.RangeAggregateIndex` so
:meth:`PositionBuffer.lift_range` answers range aggregations from
tree partials in O(log n) combines instead of re-lifting O(range)
events.  Appends do not touch the index: its nodes are built by the
reads that reach them (through :meth:`PositionBuffer.get_values`) and
dropped by :meth:`release_before` — see :mod:`repro.core.agg_index`.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import DEFAULT_CHUNK_SIZE, RangeAggregateIndex
from repro.errors import WindowError
from repro.streams.batch import VALUE_DTYPE, EventBatch

#: Compact the released head of the batch lists once it exceeds this
#: many entries *and* at least half the list (amortized O(1) per batch).
_COMPACT_THRESHOLD = 32


class PositionBuffer:
    """Contiguous events of one stream, addressed by absolute position.

    ``fn`` binds the buffer to the run's aggregate function and enables
    indexed :meth:`lift_range`; position-only users (tests, generic
    stores) may omit it.
    """

    def __init__(self, base: int = 0,
                 fn: AggregateFunction | None = None, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._base = base  # absolute position of the first retained event
        self._batches: list[EventBatch] = []
        #: Absolute start position of each stored batch (bisect key).
        self._starts: list[int] = []
        #: Index of the first live batch; release advances it instead
        #: of popping the list head (amortized O(1) eviction).
        self._head = 0
        self._length = 0
        self.fn = fn
        self._index: RangeAggregateIndex | None = None
        if fn is not None and fn.is_decomposable:
            # The index reads values back through a weak reference:
            # buffer <-> index must not be a cycle, or a dropped buffer
            # pins its event runs until the cycle collector runs.
            fetch = weakref.WeakMethod(self.get_values)
            self._index = RangeAggregateIndex(
                fn, lambda start, end: fetch()(start, end),
                chunk_size=chunk_size)

    # -- state --------------------------------------------------------------

    @property
    def base(self) -> int:
        """Absolute position of the first retained event."""
        return self._base

    @property
    def end(self) -> int:
        """Absolute position one past the last retained event."""
        return self._base + self._length

    @property
    def retained(self) -> int:
        """Number of events currently held (memory bound check)."""
        return self._length

    @property
    def index(self) -> RangeAggregateIndex | None:
        """The aggregate index, when one is bound (introspection)."""
        return self._index

    # -- mutation --------------------------------------------------------------

    def append(self, batch: EventBatch) -> None:
        """Append events arriving in stream order."""
        n = len(batch)
        if n == 0:
            return
        self._starts.append(self._base + self._length)
        self._batches.append(batch)
        self._length += n

    def release_before(self, position: int) -> int:
        """Drop events before absolute ``position``; returns #dropped.

        Mirrors watermark-driven eviction: once a window is verified,
        everything before its end is dropped.  Fully-released batches
        are skipped by advancing the head cursor; the underlying lists
        are compacted once the dead prefix dominates.
        """
        if position <= self._base:
            return 0
        drop = min(position - self._base, self._length)
        new_base = self._base + drop
        batches, starts = self._batches, self._starts
        n = len(batches)
        if drop == self._length:
            i = n  # every held batch goes
        else:
            i = self._head
            while i < n and starts[i] + len(batches[i]) <= new_base:
                i += 1
        self._head = i
        if i < n and starts[i] < new_base:
            batches[i] = batches[i].drop(new_base - starts[i])
            starts[i] = new_base
        self._base = new_base
        self._length -= drop
        if i > _COMPACT_THRESHOLD and i * 2 >= n:
            del batches[:self._head]
            del starts[:self._head]
            self._head = 0
        if self._index is not None:
            self._index.release_before(new_base)
        return drop

    # -- access ----------------------------------------------------------------

    def _pieces(self, start: int, end: int,
                ) -> list[tuple[EventBatch, int, int]]:
        """``(batch, lo, hi)`` for each stored batch that holds part of
        ``[start, end)``, in order.  Raises :class:`WindowError` when
        the range is not fully held — callers check :attr:`end` first.
        """
        if start < self._base:
            raise WindowError(
                f"range start {start} precedes buffer base {self._base} "
                f"(already released)")
        if end > self.end:
            raise WindowError(
                f"range end {end} beyond available {self.end}")
        if end <= start:
            return []
        batches, starts = self._batches, self._starts
        i = bisect_right(starts, start, lo=self._head) - 1
        batch, offset = batches[i], starts[i]
        if end <= offset + len(batch):  # the common case: one batch
            return [(batch, start - offset, end - offset)]
        pieces = []
        pos = start
        while pos < end:
            batch = batches[i]
            offset = starts[i]
            hi = min(len(batch), end - offset)
            pieces.append((batch, pos - offset, hi))
            pos = offset + hi
            i += 1
        return pieces

    def get_range(self, start: int, end: int) -> EventBatch:
        """Events at absolute positions ``[start, end)``.

        Returns a zero-copy view when the range lies inside one stored
        batch; spanning ranges concatenate views.  Raises
        :class:`WindowError` when the range is not fully held.
        """
        pieces = self._pieces(start, end)
        if len(pieces) == 1:
            batch, lo, hi = pieces[0]
            return batch.slice_range(lo, hi)
        return EventBatch.concat([batch.slice_range(lo, hi)
                                  for batch, lo, hi in pieces])

    def get_values(self, start: int, end: int) -> np.ndarray:
        """Values at ``[start, end)``: a view when one stored batch
        holds the range, else one copy of the values alone (ids and
        timestamps are not copied).  Raises as :meth:`get_range` does.
        """
        pieces = self._pieces(start, end)
        if len(pieces) == 1:
            batch, lo, hi = pieces[0]
            return batch.values[lo:hi]
        if not pieces:
            return np.empty(0, dtype=VALUE_DTYPE)
        return np.concatenate([batch.values[lo:hi]
                               for batch, lo, hi in pieces])

    def lift_range(self, start: int, end: int) -> Any:
        """Partial aggregate of ``[start, end)`` under the bound ``fn``.

        Decomposable functions go through the range-aggregation index
        (O(log n) combines over tree partials, each built on its first
        read); non-decomposable/holistic functions fall back to a
        direct lift of the extracted range.
        """
        fn = self.fn
        if fn is None:
            raise WindowError(
                "lift_range requires a buffer bound to an aggregate "
                "function (PositionBuffer(fn=...))")
        if self._index is None:
            return fn.lift(self.get_range(start, end))
        if start < self._base or end > self.end:
            # Surface the same diagnostics as get_range before the
            # decomposition touches any chunk.
            self._pieces(start, end)
        return self._index.lift_range(start, end)

    def has_range(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is fully buffered right now."""
        return start >= self._base and end <= self.end
