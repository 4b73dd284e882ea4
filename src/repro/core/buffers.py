"""Position-addressed event buffers for local nodes and the root.

Both sides of the protocol reason about *positions* in a node's stream:
the local node tracks where each window/slice starts, the root tracks
which raw positions it holds in its buffers.  ``PositionBuffer`` stores
contiguous event runs addressed by absolute stream position, supports
range extraction, and releases verified prefixes (the paper's bounded
memory argument, Sections 4.3.1-4.3.2).

When bound to an aggregate function, the buffer also maintains a
:class:`~repro.core.agg_index.RangeAggregateIndex` so
:meth:`PositionBuffer.lift_range` answers range aggregations from
precomputed partials in O(log n) combines instead of re-lifting
O(range) events — see :mod:`repro.core.agg_index` for the structure
and the bit-identity contract between cached and uncached partials.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Any

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import DEFAULT_CHUNK_SIZE, RangeAggregateIndex
from repro.errors import WindowError
from repro.streams.batch import EventBatch

#: Compact the released head of the batch lists once it exceeds this
#: many entries *and* at least half the list (amortized O(1) per batch).
_COMPACT_THRESHOLD = 32


class PositionBuffer:
    """Contiguous events of one stream, addressed by absolute position.

    ``fn`` binds the buffer to the run's aggregate function and enables
    indexed :meth:`lift_range`; position-only users (tests, generic
    stores) may omit it.  ``use_index=False`` keeps the canonical
    chunked decomposition but recomputes every partial from raw events
    (the bit-identical naive reference).  ``edge_memo`` asks the index
    to memoize sub-chunk remainder lifts (the multi-query slice store,
    where many windows repeat the same edges).
    """

    def __init__(self, base: int = 0,
                 fn: AggregateFunction | None = None, *,
                 use_index: bool = True,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 edge_memo: bool = False) -> None:
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
            # The index reads raw events back through a weak reference:
            # buffer <-> index must not be a cycle, or a dropped buffer
            # pins its event runs until the cycle collector runs.
            fetch = weakref.WeakMethod(self.get_range)
            self._index = RangeAggregateIndex(
                fn, lambda start, end: fetch()(start, end),
                base=base, chunk_size=chunk_size,
                caching=use_index, edge_memo=edge_memo)

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
        if len(batch) == 0:
            return
        self._starts.append(self._base + self._length)
        self._batches.append(batch)
        self._length += len(batch)
        if self._index is not None:
            self._index.extend(self._base + self._length)

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
        i = self._head
        batches, starts = self._batches, self._starts
        while (i < len(batches)
               and starts[i] + len(batches[i]) <= new_base):
            i += 1
        self._head = i
        if i < len(batches) and starts[i] < new_base:
            batches[i] = batches[i].drop(new_base - starts[i])
            starts[i] = new_base
        self._base = new_base
        self._length -= drop
        if (self._head > _COMPACT_THRESHOLD
                and self._head * 2 >= len(batches)):
            del batches[:self._head]
            del starts[:self._head]
            self._head = 0
        if self._index is not None:
            self._index.release_before(new_base)
        return drop

    # -- access ----------------------------------------------------------------

    def get_range(self, start: int, end: int) -> EventBatch:
        """Events at absolute positions ``[start, end)``.

        Returns a zero-copy view when the range lies inside one stored
        batch; spanning ranges concatenate views.  Raises
        :class:`WindowError` when the range is not fully held —
        callers must check :attr:`end` (availability) first.
        """
        if start < self._base:
            raise WindowError(
                f"range start {start} precedes buffer base {self._base} "
                f"(already released)")
        if end > self.end:
            raise WindowError(
                f"range end {end} beyond available {self.end}")
        if end <= start:
            return EventBatch.empty()
        starts = self._starts
        i = bisect_right(starts, start, lo=self._head) - 1
        first = self._batches[i]
        offset = starts[i]
        if end <= offset + len(first):
            # Zero-copy fast path: one stored batch covers the range.
            return first.slice_range(start - offset, end - offset)
        parts: list[EventBatch] = []
        pos = start
        while pos < end:
            batch = self._batches[i]
            offset = starts[i]
            hi = min(len(batch), end - offset)
            parts.append(batch.slice_range(pos - offset, hi))
            pos = offset + hi
            i += 1
        return EventBatch.concat(parts)

    def lift_range(self, start: int, end: int) -> Any:
        """Partial aggregate of ``[start, end)`` under the bound ``fn``.

        Decomposable functions go through the range-aggregation index
        (O(log n) combines over precomputed partials, no event-array
        copies); non-decomposable/holistic functions fall back to a
        direct lift of the extracted range.  Results are bit-identical
        whether or not the index caches.
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
            self.get_range(start, end)
        return self._index.lift_range(start, end)

    def has_range(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is fully buffered right now."""
        return start >= self._base and end <= self.end
