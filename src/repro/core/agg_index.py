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
partials of completed chunks; a level-``k`` node is
``combine(left child, right child)`` over an aligned run of ``2**k``
chunks.  A range query decomposes into at most ``2*log2(n_chunks)``
precomputed nodes plus two sub-chunk remainder lifts, combined
left-to-right — no event arrays are copied for the interior.

Bit-identity contract: the decomposition and the combine association
depend only on ``(start, end)`` and ``chunk_size`` — never on what
happens to be cached.  With ``caching=False`` (the reference the
tests compare against) the same node partials are recomputed from raw
events through the same recursion, so window results, flows, bytes,
and determinism fingerprints are bit-identical with caching on or off.
Caching can only change *host* wall-clock, never a partial's bits.
Only tree nodes are cached: a sub-chunk remainder is lifted from the
raw events each time a range needs it.

:func:`fold_windows` is the same decomposition for many windows at
once, over one contiguous value store: remainders gathered into
row blocks, leaves and parents built level by level, and every
window's parts folded left to right in numpy columns through the
aggregate's columnar kernel, bit-identical to :meth:`lift_range`
window by window.  The multi-query engine's flush is its caller.

Non-decomposable (holistic) functions must not use the tree — their
partials are the collected values, so caching them would duplicate the
buffer.  :class:`~repro.core.buffers.PositionBuffer` gates on
``fn.is_decomposable`` and falls back to a direct lift.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction, Columns
from repro.errors import ConfigurationError
from repro.streams.batch import EventBatch

#: Aligned-chunk width of the index, in events.  Power of two so node
#: spans nest exactly; 512 keeps leaf lifts comfortably vectorized
#: while bounding the sub-chunk remainder work of a query.
DEFAULT_CHUNK_SIZE = 512

def decomposition_width(start: int, end: int,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of parts :meth:`RangeAggregateIndex.lift_range` folds for
    ``[start, end)`` — the per-query combine cost of one window.

    Pure arithmetic mirror of the decomposition loop (head remainder +
    power-of-two interior cover + tail remainder); used by the
    multi-query engine's cost accounting without touching any partials.
    """
    if end <= start:
        return 0
    size = chunk_size
    head_end = min(end, -(-start // size) * size)
    tail_start = max(head_end, (end // size) * size)
    n = int(start < head_end) + int(tail_start < end)
    c0, c1 = head_end // size, tail_start // size
    while c0 < c1:
        block = c0 & -c0 if c0 else 1 << ((c1 - c0).bit_length() - 1)
        while c0 + block > c1:
            block >>= 1
        n += 1
        c0 += block
    return n


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
    """Power-of-two tree of combined partials over aligned chunks.

    The index does not own event storage: ``fetch(start, end)`` reads
    raw events from the backing buffer (zero-copy when the range lies
    in one stored batch).  ``caching=False`` keeps the canonical
    decomposition but recomputes every node from raw events — the
    bit-identical naive reference the tests compare against.
    """

    def __init__(self, fn: AggregateFunction,
                 fetch: Callable[[int, int], EventBatch],
                 *, base: int = 0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 caching: bool = True) -> None:
        if chunk_size <= 0 or chunk_size & (chunk_size - 1):
            raise ConfigurationError(
                f"chunk_size must be a positive power of two, got "
                f"{chunk_size}")
        self.fn = fn
        self.chunk_size = chunk_size
        self.caching = caching
        self._fetch = fetch
        #: Per-level node partials; ``_levels[k][i]`` covers chunk run
        #: ``[i * 2**k, (i + 1) * 2**k)``.
        self._levels: list[dict[int, Any]] = [{}]
        #: Lowest per-level index not yet evicted (indices only grow,
        #: so eviction pops a contiguous prefix — amortized O(1)).
        self._floors: list[int] = [0]
        #: Next chunk index awaiting completion.
        self._next_leaf = -(-base // chunk_size)
        # -- host-side statistics (never affect results) --
        self.nodes_built = 0
        self.nodes_evicted = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- maintenance -------------------------------------------------------

    def extend(self, end: int) -> None:
        """Absorb appended events: build leaves for every chunk that is
        now complete (``(c + 1) * chunk_size <= end``) and bubble
        parent nodes up while both children exist.

        Multi-chunk appends fetch the whole new-chunk block once and
        lift all leaves through the aggregate's batched
        :meth:`~repro.aggregates.base.AggregateFunction.lift_ranges`
        kernel (one row-wise reduction), which is bit-identical to
        lifting each chunk separately — the per-leaf partials that land
        in the tree are the same either way.
        """
        if not self.caching:
            return
        size = self.chunk_size
        first = self._next_leaf
        n_new = end // size - first
        if n_new <= 0:
            return
        block = self._fetch(first * size, (first + n_new) * size)
        if n_new == 1:
            self._set_leaf(first, self.fn.lift(block))
        else:
            starts = [i * size for i in range(n_new)]
            ends = [(i + 1) * size for i in range(n_new)]
            for c, partial in enumerate(
                    self.fn.lift_ranges(block, starts, ends),
                    start=first):
                self._set_leaf(c, partial)
        self._next_leaf = first + n_new

    def _set_leaf(self, chunk: int, partial: Any) -> None:
        levels = self._levels
        levels[0][chunk] = partial
        self.nodes_built += 1
        level, idx = 0, chunk
        # Chunks complete left-to-right, so a parent is buildable
        # exactly when its *right* child lands and the left sibling is
        # still cached (not evicted past).
        while idx & 1:
            sibling = levels[level].get(idx - 1)
            if sibling is None:
                break
            partial = self.fn.combine(sibling, partial)
            level += 1
            idx >>= 1
            if level == len(levels):
                levels.append({})
                self._floors.append(0)
            levels[level][idx] = partial
            self.nodes_built += 1

    def release_before(self, position: int) -> None:
        """Evict every node whose span starts before ``position``.

        Mirrors buffer eviction: a node overlapping released positions
        can never be requested again (queries start at or after the
        buffer base), so it is dropped.  Floors only advance, so each
        node index is visited at most once over the buffer's lifetime.
        """
        if not self.caching:
            return
        span = self.chunk_size
        for level, nodes in enumerate(self._levels):
            floor = -(-position // span)
            old = self._floors[level]
            if floor > old:
                for i in range(old, floor):
                    if nodes.pop(i, None) is not None:
                        self.nodes_evicted += 1
                self._floors[level] = floor
            span <<= 1
        self._next_leaf = max(self._next_leaf,
                              -(-position // self.chunk_size))

    # -- queries -----------------------------------------------------------

    def lift_range(self, start: int, end: int) -> Any:
        """Partial aggregate of ``[start, end)``.

        Decomposes the range into sub-chunk head/tail remainders plus
        the canonical power-of-two node cover of the aligned interior,
        then folds the parts left-to-right.  The decomposition is a
        pure function of ``(start, end)`` — caching never changes it.
        """
        fn = self.fn
        if end <= start:
            return fn.identity()
        size = self.chunk_size
        head_end = min(end, -(-start // size) * size)
        tail_start = max(head_end, (end // size) * size)
        parts: list[Any] = []
        if start < head_end:
            parts.append(fn.lift(self._fetch(start, head_end)))
        c0, c1 = head_end // size, tail_start // size
        levels = self._levels
        n_levels = len(levels)
        hits = 0
        while c0 < c1:
            # Largest aligned block starting at c0 that fits in [c0, c1).
            block = c0 & -c0 if c0 else 1 << ((c1 - c0).bit_length() - 1)
            while c0 + block > c1:
                block >>= 1
            level = block.bit_length() - 1
            node = (levels[level].get(c0 >> level)
                    if level < n_levels else None)
            if node is None:
                node = self._node(level, c0 >> level)
            else:
                hits += 1
            parts.append(node)
            c0 += block
        if tail_start < end:
            parts.append(fn.lift(self._fetch(tail_start, end)))
        self.cache_hits += hits
        return fn.combine_many(parts)

    def _node(self, level: int, idx: int) -> Any:
        """One node's partial: cached, or recomputed through the same
        recursion (identical bits either way)."""
        if self.caching and level < len(self._levels):
            partial = self._levels[level].get(idx)
            if partial is not None:
                self.cache_hits += 1
                return partial
            self.cache_misses += 1
        if level == 0:
            size = self.chunk_size
            return self.fn.lift(self._fetch(idx * size,
                                            (idx + 1) * size))
        return self.fn.combine(self._node(level - 1, 2 * idx),
                               self._node(level - 1, 2 * idx + 1))

    # -- introspection -----------------------------------------------------

    @property
    def nodes_cached(self) -> int:
        """Nodes currently held (memory-bound checks in tests)."""
        return sum(len(nodes) for nodes in self._levels)

    def __repr__(self) -> str:
        return (f"RangeAggregateIndex(fn={self.fn.name!r}, "
                f"chunk={self.chunk_size}, caching={self.caching}, "
                f"nodes={self.nodes_cached})")
