"""Shared range-aggregation index: O(log n) zero-copy ``lift_range``.

Every scheme answers "aggregate positions ``[start, end)``" against a
:class:`~repro.core.buffers.PositionBuffer`.  The naive path
materializes a copied batch and re-lifts it from scratch — O(range) per
call, repeated for overlapping speculative windows, corrections, and
root-side re-verification, so the same events are lifted many times per
run.  The paper's own premise (Section 2.3, via Scotty-style slicing)
is that decomposable functions let partials be computed once and
*combined*; this module exploits that host-side.

Structure: the stream is cut into aligned *chunks* of
``chunk_size`` events (a power of two).  Level-0 nodes are the lifted
partials of chunks; a level-``k`` node is
``combine(left child, right child)`` over an aligned run of ``2**k``
chunks.  A range query decomposes (:func:`decompose`) into at most
``2*log2(n_chunks)`` nodes plus two sub-chunk remainder lifts, combined
left-to-right.  The index reads only values, a view when one stored
batch holds the range.  Appending events builds nothing: a node is
built on its first read (the missing leaves lifted in one ``lift_rows``
pass per contiguous run of chunks, the parents combined from their two
children) and held until the buffer releases its start, so a buffer
that is never queried holds no node and a queried one only the nodes
its windows reach.

Bit-identity contract: the decomposition and the combine association
depend only on ``(start, end)`` and ``chunk_size`` — never on what
happens to be held — and ``lift_rows`` is bit-equal to ``lift`` row
by row, so a partial's bits do not depend on which reads came first.
The tests hold every lift, and whole runs' fingerprints, to
:func:`fold_windows` over the same values.  Only tree nodes are held:
a remainder is lifted from the values each time a range needs it.

:func:`fold_windows` is the same decomposition for many windows at
once, over one contiguous value store: remainders gathered into
row blocks, leaves and parents built level by level, and every
window's parts folded left to right in numpy columns through the
aggregate's columnar kernel, bit-identical to :meth:`lift_range`
window by window.  The multi-query engine's flush is its caller.

Non-decomposable (holistic) functions must not use the tree — their
partials are the collected values, so holding them would duplicate the
buffer.  :class:`~repro.core.buffers.PositionBuffer` gates on
``fn.is_decomposable`` and falls back to a direct lift.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from itertools import groupby
from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction, Columns
from repro.errors import ConfigurationError

#: Aligned-chunk width of the index, in events.  Power of two so node
#: spans nest exactly; 512 keeps leaf lifts comfortably vectorized
#: while bounding the sub-chunk remainder work of a query.
DEFAULT_CHUNK_SIZE = 512

def decompose(start: int, end: int,
              chunk_size: int = DEFAULT_CHUNK_SIZE,
              ) -> tuple[int, list[tuple[int, int]], int]:
    """``(head_end, cover, tail_start)`` of ``[start, end)``: the
    sub-chunk head ``[start, head_end)`` and tail ``[tail_start, end)``
    remainders (empty when their bounds meet) and the ``(level,
    index)`` nodes covering the aligned interior in position order,
    each the largest aligned block that fits.  :func:`fold_windows`
    walks the same cover in columns."""
    size = chunk_size
    head_end = min(end, -(-start // size) * size)
    tail_start = max(head_end, (end // size) * size)
    c0, c1 = head_end // size, tail_start // size
    cover: list[tuple[int, int]] = []
    while c0 < c1:
        block = c0 & -c0 if c0 else 1 << ((c1 - c0).bit_length() - 1)
        while c0 + block > c1:
            block >>= 1
        level = block.bit_length() - 1
        cover.append((level, c0 >> level))
        c0 += block
    return head_end, cover, tail_start


def decomposition_cost(start: int, end: int,
                       chunk_size: int = DEFAULT_CHUNK_SIZE,
                       ) -> tuple[int, int]:
    """``(parts, edge_events)`` of ``[start, end)``: the parts
    :meth:`RangeAggregateIndex.lift_range` folds and its head + tail
    remainder length, as :func:`fold_windows` counts them per window.
    """
    if end <= start:
        return 0, 0
    head_end, cover, tail_start = decompose(start, end, chunk_size)
    parts = int(start < head_end) + len(cover) + int(tail_start < end)
    return parts, (head_end - start) + (end - tail_start)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each positive entry (exact below 2**53)."""
    return np.frexp(x)[1].astype(np.int64)


def fold_windows(fn: AggregateFunction, values: np.ndarray, base: int,
                 starts: np.ndarray, ends: np.ndarray,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 ) -> tuple[Columns, np.ndarray, np.ndarray]:
    """Partials of many non-empty ``[start, end)`` windows over one
    contiguous float64 value store, in one columnar pass.

    ``values[i]`` is the event at absolute position ``base + i`` and
    every window lies inside the store.  Each window's partial is
    bit-for-bit :meth:`RangeAggregateIndex.lift_range`'s: the same
    head remainder, canonical power-of-two interior cover and tail
    remainder; leaves lifted from aligned chunks and parents combined
    from their two children; parts folded left to right seeded with the
    first part (``combine_many``'s order), column by column through
    ``fn``'s columnar kernel.  Remainders are gathered into
    C-contiguous ``(n, width)`` rows, one block per distinct width.

    Returns ``(partials, parts, edge_events)``: the partial columns,
    the number of parts each window folded, and its head + tail
    remainder length.
    """
    size = chunk_size
    head_end = np.minimum(ends, -(-starts // size) * size)
    tail_start = np.maximum(head_end, ends // size * size)
    has_head = starts < head_end
    has_tail = tail_start < ends
    # One table holds every part a window folds: the remainder
    # partials, then the tree level by level.
    lo = np.concatenate([starts[has_head], tail_start[has_tail]])
    widths = np.concatenate([head_end[has_head], ends[has_tail]]) - lo
    order = np.argsort(widths, kind="stable")
    cuts = np.flatnonzero(np.diff(widths[order])) + 1
    pieces: list[Columns] = []
    for group in np.split(order, cuts):
        if len(group):
            offsets = (lo[group] - base)[:, None]
            pieces.append(fn.lift_rows(
                values[offsets + np.arange(widths[group[0]])]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    n_heads = int(has_head.sum())
    head_row = np.full(len(starts), -1, dtype=np.int64)
    head_row[has_head] = rank[:n_heads]
    tail_row = np.full(len(starts), -1, dtype=np.int64)
    tail_row[has_tail] = rank[n_heads:]
    # Level k holds the nodes [first, first + count) of chunk runs of
    # 2**k, at table rows [level_row[k], level_row[k] + count).
    first = -(-base // size)
    count = (base + len(values)) // size - first
    level_row: list[int] = []
    level_first: list[int] = []
    row = len(order)
    if count > 0:
        at = first * size - base
        level = fn.lift_rows(
            values[at:at + count * size].reshape(count, size))
        while True:
            pieces.append(level)
            level_row.append(row)
            level_first.append(first)
            row += count
            parent = -(-first // 2)
            skip = 2 * parent - first
            pairs = (count - skip) // 2
            if pairs <= 0:
                break
            stop = skip + 2 * pairs
            level = fn.combine_columns(
                tuple(c[skip:stop:2] for c in level),
                tuple(c[skip + 1:stop:2] for c in level))
            first, count = parent, pairs
    table = tuple(np.concatenate(column) for column in zip(*pieces))
    rows_at = np.array(level_row, dtype=np.int64)
    first_at = np.array(level_first, dtype=np.int64)
    # The cover walk, one step per part for every window at once: the
    # largest aligned block at c0 that fits in [c0, c1).
    columns = [head_row]
    c0, c1 = head_end // size, tail_start // size
    while True:
        active = c0 < c1
        if not active.any():
            break
        top = 1 << (_bit_length(np.where(active, c1 - c0, 1)) - 1)
        block = np.where(c0 == 0, top, np.minimum(c0 & -c0, top))
        k = _bit_length(block) - 1
        columns.append(np.where(
            active, rows_at[k] + (c0 >> k) - first_at[k], -1))
        c0 = np.where(active, c0 + block, c0)
    columns.append(tail_row)
    acc = tuple(np.empty(len(starts), dtype=c.dtype) for c in table)
    started = np.zeros(len(starts), dtype=bool)
    parts = np.zeros(len(starts), dtype=np.int64)
    for rows in columns:
        present = rows >= 0
        seed = present & ~started
        for a, c in zip(acc, table, strict=True):
            a[seed] = c[rows[seed]]
        more = present & started
        if more.any():
            folded = fn.combine_columns(
                tuple(a[more] for a in acc),
                tuple(c[rows[more]] for c in table))
            for a, f in zip(acc, folded, strict=True):
                a[more] = f
        started |= present
        parts += present
    return acc, parts, (head_end - starts) + (ends - tail_start)


class RangeAggregateIndex:
    """Power-of-two tree of combined partials over aligned chunks,
    built on demand.

    The index does not own event storage: ``fetch(start, end)`` reads
    the values of a range from the backing buffer (zero-copy when the
    range lies in one stored batch).  A node is built the first time a
    query's cover reaches it and held until :meth:`release_before`
    passes its start.
    """

    def __init__(self, fn: AggregateFunction,
                 fetch: Callable[[int, int], np.ndarray],
                 *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0 or chunk_size & (chunk_size - 1):
            raise ConfigurationError(
                f"chunk_size must be a positive power of two, got "
                f"{chunk_size}")
        self.fn = fn
        self.chunk_size = chunk_size
        self._fetch = fetch
        #: Held node partials; node ``(k, i)`` covers chunk run
        #: ``[i * 2**k, (i + 1) * 2**k)``.
        self._nodes: dict[tuple[int, int], Any] = {}
        #: ``(start position, level, index)`` of every held node, a
        #: min-heap on the start, so eviction pops exactly the nodes it
        #: drops.
        self._held: list[tuple[int, int, int]] = []
        # -- host-side statistics (never affect results) --
        self.nodes_built = 0
        self.nodes_evicted = 0

    # -- maintenance -------------------------------------------------------

    def release_before(self, position: int) -> None:
        """Evict every node whose span starts before ``position``.

        Mirrors buffer eviction: a node overlapping released positions
        can never be requested again (queries start at or after the
        buffer base), so it is dropped.  Each held node is popped once,
        so eviction costs what was built, whatever the released range.
        """
        held = self._held
        while held and held[0][0] < position:
            _, level, idx = heapq.heappop(held)
            del self._nodes[level, idx]
            self.nodes_evicted += 1

    # -- queries -----------------------------------------------------------

    def lift_range(self, start: int, end: int) -> Any:
        """Partial aggregate of ``[start, end)``: the head remainder,
        the cover's nodes (built if missing) and the tail remainder of
        :func:`decompose`, folded left-to-right."""
        fn = self.fn
        if end <= start:
            return fn.identity()
        head_end, cover, tail_start = decompose(start, end,
                                                self.chunk_size)
        parts: list[Any] = []
        if start < head_end:
            parts.append(self._lift(start, head_end))
        self._lift_leaves(cover)
        parts.extend(self._node(level, idx) for level, idx in cover)
        if tail_start < end:
            parts.append(self._lift(tail_start, end))
        return fn.combine_many(parts)

    def _lift(self, start: int, end: int) -> Any:
        """A remainder's partial, lifted from its values as one row."""
        fn = self.fn
        return fn.partials(fn.lift_rows(
            self._fetch(start, end).reshape(1, end - start)))[0]

    def _lift_leaves(self, cover: list[tuple[int, int]]) -> None:
        """Build every leaf missing under the ``cover`` nodes with one
        fetch and one ``lift_rows`` pass per contiguous run of chunks,
        so a first read does not fetch its chunks one at a time."""
        nodes = self._nodes
        # A held node's whole subtree is held (a child never starts
        # before its parent, so it is evicted no earlier).  Cover nodes
        # ascend, so ``missing`` does.
        missing = [c for level, idx in cover if (level, idx) not in nodes
                   for c in range(idx << level, (idx + 1) << level)
                   if (0, c) not in nodes]
        size = self.chunk_size
        fn = self.fn
        for _, run in groupby(enumerate(missing), lambda p: p[1] - p[0]):
            chunks = [c for _, c in run]
            values = self._fetch(chunks[0] * size,
                                 (chunks[-1] + 1) * size)
            for c, partial in zip(chunks, fn.partials(fn.lift_rows(
                    values.reshape(len(chunks), size)))):
                self._hold(0, c, partial)

    def _node(self, level: int, idx: int) -> Any:
        """One node's partial: held ones are read back, a missing
        parent combines its two children and is held.  Every leaf under
        a cover node is built by :meth:`_lift_leaves` first."""
        partial = self._nodes.get((level, idx))
        if partial is None:
            left = self._node(level - 1, 2 * idx)
            right = self._node(level - 1, 2 * idx + 1)
            partial = self.fn.combine(left, right)
            self._hold(level, idx, partial)
        return partial

    def _hold(self, level: int, idx: int, partial: Any) -> None:
        self._nodes[level, idx] = partial
        heapq.heappush(self._held,
                       ((idx << level) * self.chunk_size, level, idx))
        self.nodes_built += 1

    # -- introspection -----------------------------------------------------

    @property
    def nodes_cached(self) -> int:
        """Nodes currently held (memory-bound checks in tests)."""
        return len(self._held)

    def __repr__(self) -> str:
        return (f"RangeAggregateIndex(fn={self.fn.name!r}, "
                f"chunk={self.chunk_size}, nodes={self.nodes_cached})")
