"""Canonical-key epoch merge: the ordering core of epoch-mode serve.

One epoch's replay is a K-way merge over per-worker FIFO queues of op
batches.  A worker ships a batch only for an item with cross-node
effects (a send, an outcome, the stop); every batch carries a *ref*
naming the item that produced it, every ref resolves to one canonical
merge key, and the coordinator always applies the batch with the
smallest key next.  Keys are

``(time, phase, rank, class, tie)``

where ``class`` separates deliveries the coordinator shipped as slots
(0) from the worker's own timers (1), and ``tie`` is the global kernel
pop position for slots or ``(node order, the worker's timer seq)`` for
timers.  A slot's key is looked up from what the coordinator recorded
when it shipped the slot; a timer's ``(time, phase, rank)`` arrives
with its batch (``"k"``), since the worker's kernel is the only place
that timer ever lived.

This module is deliberately transport-free and is driven by *both* the
live TCP coordinator (:mod:`repro.serve.coordinator`) and the
small-scope interleaving model checker
(:mod:`repro.analysis.explore`) — the checker's exhaustive enumeration
therefore exercises the shipped merge code, not a re-implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import ServeError

#: One canonical merge key: ``(time, phase, rank, class, tie)``.
MergeKey = tuple[float, int, tuple[str, ...], int, tuple[int, ...]]

#: One worker's epoch reply: FIFO of ``{"ref", "ops"}`` batches (plus
#: ``"k"`` on a timer batch).
BatchQueue = deque[dict[str, Any]]


def slot_key(time: float, phase: int, rank: tuple[str, ...],
             pos: int) -> MergeKey:
    """Class-0 key for a shipped slot (``pos`` = global pop position)."""
    return (time, phase, rank, 0, (pos,))


def timer_key(time: float, phase: int, rank: tuple[str, ...],
              order: int, seq: int) -> MergeKey:
    """Class-1 key for a worker timer (``order`` = the node's place in
    the sender table, ``seq`` = the worker's scheduling order)."""
    return (time, phase, rank, 1, (order, seq))


def key_from_json(raw: list[Any]) -> MergeKey:
    """A merge key back from its JSON list form."""
    time, phase, rank, cls, tie = raw
    return (time, phase, tuple(rank), cls, tuple(tie))


class EpochMerge:
    """Head selection for one epoch replay.

    ``horizon`` is the epoch's exclusive bound: a worker may run only
    timers below it, so a timer batch at or past it is a bookkeeping
    bug and raises.
    """

    __slots__ = ("horizon", "slot_keys", "_order")

    def __init__(self, horizon: float, node_order: dict[str, int],
                 slot_keys: dict[str, list[MergeKey]]) -> None:
        self.horizon = horizon
        self.slot_keys = slot_keys
        self._order = node_order

    def head_key(self, name: str, batch: dict[str, Any]) -> MergeKey:
        """The canonical key of one batch.

        Raises:
            ServeError: for a timer batch at or past the horizon — the
                worker ran work the epoch did not cover.
        """
        kind, idx = batch["ref"]
        if kind == "slot":
            return self.slot_keys[name][idx]
        time, phase, rank = batch["k"]
        if not time < self.horizon:
            raise ServeError(
                f"node {name!r} ran timer {idx} at {time}, past the "
                f"epoch horizon {self.horizon}")
        return timer_key(time, phase, tuple(rank), self._order[name], idx)

    def pop_next(self, queues: dict[str, BatchQueue]
                 ) -> tuple[str, dict[str, Any], MergeKey] | None:
        """Pop the globally-next batch across all worker queues.

        Selection iterates ``queues`` in dict insertion order — the
        one degree of freedom reply arrival order has; the model
        checker permutes it and asserts the merge result invariant.
        Returns ``(worker, batch, canonical key)``, or None when every
        queue is drained.
        """
        best: str | None = None
        best_key: MergeKey | None = None
        for name, queue in queues.items():
            if not queue:
                continue
            key = self.head_key(name, queue[0])
            if best_key is None or key < best_key:
                best, best_key = name, key
        if best is None or best_key is None:
            return None
        return best, queues[best].popleft(), best_key
