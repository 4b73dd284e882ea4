"""Columnar event batches.

Experiments in the paper process up to 100 million events per node, which
is infeasible as per-event Python objects.  ``EventBatch`` stores events
columnar in numpy arrays (ids, values, timestamps) and provides the batch
operations the window operators need: slicing by position, stable sorting
by timestamp, and concatenation.  The per-event :class:`~repro.streams.event.Event`
view is retained for small-scale tests and examples.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import StreamError
from repro.streams.event import Event

ID_DTYPE = np.int64
VALUE_DTYPE = np.float64
TS_DTYPE = np.int64


class EventBatch:
    """An immutable, ordered, columnar collection of events.

    Order is arrival order; it is *not* required to be timestamp-sorted
    (buffers at the root are explicitly re-sorted, mirroring the paper's
    stable sort of root-buffer events).
    """

    __slots__ = ("ids", "values", "ts")

    def __init__(self, ids: np.ndarray, values: np.ndarray, ts: np.ndarray):
        ids = np.asarray(ids, dtype=ID_DTYPE)
        values = np.asarray(values, dtype=VALUE_DTYPE)
        ts = np.asarray(ts, dtype=TS_DTYPE)
        if not (ids.shape == values.shape == ts.shape) or ids.ndim != 1:
            raise StreamError(
                f"batch columns must be 1-d and equally sized, got shapes "
                f"{ids.shape}/{values.shape}/{ts.shape}"
            )
        self.ids = ids
        self.values = values
        self.ts = ts

    # -- construction ----------------------------------------------------

    @classmethod
    def _view(cls, ids: np.ndarray, values: np.ndarray,
              ts: np.ndarray) -> "EventBatch":
        """Wrap already-validated columns without copies or checks.

        Internal fast path for slicing/sorting/concatenation, where the
        columns are derived from an existing batch and are equal-length
        1-d arrays of the right dtypes by construction.  Source feeding
        slices a stream once per injected batch, so skipping the
        ``asarray`` + shape validation of ``__init__`` is a hot-path
        win; numpy basic slicing already returns views, not copies.
        """
        batch = object.__new__(cls)
        batch.ids = ids
        batch.values = values
        batch.ts = ts
        return batch

    @classmethod
    def empty(cls) -> "EventBatch":
        """The shared empty batch.

        Batches are immutable, so a single zero-length instance serves
        every caller; ``empty()`` is hit once per drained buffer slice
        and per out-of-range ``get_range``.
        """
        return _EMPTY

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate batches preserving argument order."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        return cls._view(
            np.concatenate([b.ids for b in batches]),
            np.concatenate([b.values for b in batches]),
            np.concatenate([b.ts for b in batches]),
        )

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield Event(int(self.ids[i]), float(self.values[i]),
                        int(self.ts[i]))

    def __getitem__(self, index) -> "EventBatch":
        if isinstance(index, int):
            index = slice(index, index + 1)
        return EventBatch._view(self.ids[index], self.values[index],
                                self.ts[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids)
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.ts, other.ts))

    def __hash__(self):  # pragma: no cover - batches are not hashable
        raise TypeError("EventBatch is unhashable")

    def __repr__(self) -> str:
        if len(self) == 0:
            return "EventBatch(empty)"
        return (f"EventBatch(n={len(self)}, ts=[{int(self.ts[0])}.."
                f"{int(self.ts[-1])}])")

    # -- slicing ----------------------------------------------------------

    def take(self, n: int) -> "EventBatch":
        """The first ``n`` events in arrival order.

        Taking the whole batch returns ``self`` — batches are immutable,
        so identity is safe and skips even the view wrappers.
        """
        if n >= len(self):
            return self
        return self[:n]

    def drop(self, n: int) -> "EventBatch":
        """All but the first ``n`` events in arrival order."""
        if n <= 0:
            return self
        return self[n:]

    def split(self, n: int) -> tuple["EventBatch", "EventBatch"]:
        """Split into ``(first n, rest)``."""
        return self.take(n), self.drop(n)

    def slice_range(self, start: int, stop: int) -> "EventBatch":
        """Events at positions ``[start, stop)`` in arrival order.

        Returns views into this batch's columns (no data copies); the
        full-span slice returns ``self``.
        """
        if start <= 0 and stop >= len(self):
            return self
        return EventBatch._view(self.ids[start:stop],
                                self.values[start:stop],
                                self.ts[start:stop])

    # -- ordering ---------------------------------------------------------

    def sorted_by_ts(self) -> "EventBatch":
        """A stably timestamp-sorted copy (paper: root buffers are stably
        sorted; ties keep arrival order)."""
        order = np.argsort(self.ts, kind="stable")
        return EventBatch._view(self.ids[order], self.values[order],
                                self.ts[order])

    def is_ts_sorted(self) -> bool:
        """Whether timestamps are non-decreasing in arrival order."""
        return len(self) < 2 or bool(np.all(np.diff(self.ts) >= 0))

    # -- views ------------------------------------------------------------

    @property
    def first_ts(self) -> int:
        """Timestamp of the first event (arrival order)."""
        if len(self) == 0:
            raise StreamError("first_ts of an empty batch")
        return int(self.ts[0])

    @property
    def last_ts(self) -> int:
        """Timestamp of the last event (arrival order)."""
        if len(self) == 0:
            raise StreamError("last_ts of an empty batch")
        return int(self.ts[-1])


#: The module-wide empty batch returned by :meth:`EventBatch.empty`
#: (immutable, hence shareable).  Assigned once at import time.
_EMPTY = EventBatch(np.empty(0, ID_DTYPE), np.empty(0, VALUE_DTYPE),
                    np.empty(0, TS_DTYPE))
