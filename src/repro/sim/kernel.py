"""Discrete-event simulation kernel.

A minimal, deterministic event-driven scheduler: callbacks are executed
in (time, insertion) order from a binary heap.  All simulation components
(network links, node CPU queues, timeouts) are built on this kernel, so a
whole cluster run is a single-threaded, reproducible computation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.runtime.api import PHASE_PROTOCOL

__all__ = ["ScheduledEvent", "Simulator"]

_INF = math.inf


class ScheduledEvent(list[Any]):
    """Handle for a scheduled callback; supports cancellation.

    The handle is its own heap entry, ``[time, phase, rank, sort_seq,
    callback, seq, simulator]``: a list, so every heap comparison runs
    in C, and ``sort_seq`` is unique, so nothing past it is ever
    compared.  One object per scheduled event, built by one call;
    running or cancelling it clears the callback slot.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute simulation time the callback runs at."""
        time: float = self[0]
        return time

    @property
    def phase(self) -> int:
        """Scheduling domain ordering same-time events (see
        :meth:`Simulator.schedule_at`)."""
        phase: int = self[1]
        return phase

    @property
    def rank(self) -> tuple[str, ...]:
        """Canonical same-(time, phase) ordering key.

        Events carrying a rank run after unranked ones and sort by the
        rank itself (e.g. network sends by ``(src, dst)``), making
        their mutual order — and everything downstream of
        shared-resource contention — independent of insertion order.
        """
        rank: tuple[str, ...] = self[2]
        return rank

    @property
    def sort_seq(self) -> int:
        """Tie-break rank among equal-(time, phase, rank) events.

        Equals :attr:`seq` normally; a :class:`Simulator` with a
        nonzero ``tiebreak_salt`` permutes it (see the determinism
        contract in :mod:`repro.analysis.determinism`).
        """
        sort_seq: int = self[3]
        return sort_seq

    @property
    def callback(self) -> Callable[[], None] | None:
        """The callback, or None once the event ran or was cancelled."""
        callback: Callable[[], None] | None = self[4]
        return callback

    @property
    def seq(self) -> int:
        """Insertion sequence number within the owning simulator."""
        seq: int = self[5]
        return seq

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled or has already run."""
        return self[4] is None

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancellation is lazy: the entry stays in the heap and is
        discarded when it surfaces, but the owning simulator's live
        counter is decremented immediately so :meth:`Simulator.pending`
        stays O(1).
        """
        if self[4] is not None:
            self[4] = None
            self[6]._live -= 1


class Simulator:
    """The simulation clock and event loop.

    Time is in seconds (float).  Determinism: events at equal times run
    in scheduling order.

    ``tiebreak_salt`` is part of the determinism *contract*: a nonzero
    salt deterministically permutes the execution order of equal-time
    events (by XOR-ing the insertion sequence number used as the heap
    tie-break).  Simulation results must be invariant under the salt —
    any divergence means a component depends on incidental same-time
    ordering, which :mod:`repro.analysis.determinism` turns into a test
    failure instead of a silent reproducibility hazard.
    """

    def __init__(self, tiebreak_salt: int = 0) -> None:
        if tiebreak_salt < 0:
            raise SimulationError(
                f"tiebreak_salt must be >= 0, got {tiebreak_salt}")
        self.tiebreak_salt = tiebreak_salt
        self._now = 0.0
        #: Heap of :class:`ScheduledEvent` entries.
        self._queue: list[ScheduledEvent] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Live (scheduled, not yet run, not cancelled) event count,
        #: maintained incrementally so ``pending()`` is O(1).
        self._live = 0
        self.events_executed = 0
        #: Observability sink shared by everything built on this kernel
        #: (nodes, network, behaviours).  The no-op default keeps the
        #: run-loop and all hook sites at a guarded attribute check;
        #: the kernel itself never records per-event traces — at
        #: millions of callbacks per run that would swamp any trace.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None],
                 phase: int = PHASE_PROTOCOL,
                 rank: tuple[str, ...] = ()) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self.schedule_at(self._now + delay, callback, phase=phase,
                                rank=rank)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    phase: int = PHASE_PROTOCOL,
                    rank: tuple[str, ...] = ()) -> ScheduledEvent:
        """Run ``callback`` at absolute simulation ``time``.

        ``phase`` orders same-time events across scheduling domains
        (``PHASE_PROTOCOL`` / ``PHASE_DELIVER`` / ``PHASE_SOURCE`` of
        :mod:`repro.runtime.api`); ``rank`` canonically orders same-phase
        events that contend for a shared resource.  The tie-break salt
        only permutes within an equal (time, phase, rank) class.
        """
        now = self._now
        # One range test on the hot path: NaN fails every comparison,
        # -inf is in the past and +inf is not below _INF.
        if not now <= time < _INF:
            if time < now:
                raise SimulationError(
                    f"cannot schedule at {time} < now {now}")
            raise SimulationError(f"non-finite schedule time {time}")
        seq = self._seq
        self._seq = seq + 1
        sort_seq = seq ^ self.tiebreak_salt
        event = ScheduledEvent((time, phase, rank, sort_seq, callback, seq,
                                self))
        heappush(self._queue, event)
        self._live += 1
        return event

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Execute events until the queue drains, ``until`` is reached,
        or ``max_events`` callbacks have run.  Returns the final time."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # Hot loop: hoist attribute lookups out of the per-event
        # iteration (the kernel executes millions of events per run).
        queue = self._queue
        horizon = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        try:
            while queue and not self._stopped:
                event = heappop(queue)
                callback = event[4]
                if callback is None:
                    continue
                time = event[0]
                if time > horizon:
                    # Not due: put it back (keys are unique, so the
                    # heap's pop order is unchanged).
                    heappush(queue, event)
                    self._now = horizon
                    break
                self._live -= 1
                # Consumed: a late cancel() on this handle must be a
                # no-op, not a second live-counter decrement.
                event[4] = None
                self._now = time
                callback()
                executed += 1
                if executed >= limit:
                    break
            else:
                if until is not None and not self._stopped:
                    self._now = max(self._now, until)
        finally:
            self.events_executed += executed
            self._running = False
        return self._now

    def peek(self) -> ScheduledEvent | None:
        """The next live event, or None when nothing is scheduled.

        Drops lazily-deleted (cancelled) heads on the way, so the heap
        never surfaces one; :meth:`pending` is unaffected — a cancelled
        event left the live count when it was cancelled.
        """
        queue = self._queue
        while queue:
            event = queue[0]
            if event[4] is not None:
                return event
            heappop(queue)
        return None

    def live_events(self) -> Iterator[ScheduledEvent]:
        """Every live scheduled event, in no particular order."""
        return (event for event in self._queue if event[4] is not None)

    def clear(self) -> None:
        """Drop every scheduled event (teardown of a finished run).

        The dropped events are marked cancelled, so a handle someone
        still holds stays inert and ``pending()`` consistent.
        """
        for event in self._queue:
            event[4] = None
        self._queue.clear()
        self._live = 0

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events.

        O(1): a counter is maintained on schedule / cancel / execution
        instead of scanning the heap (which still holds lazily-deleted
        cancelled entries).
        """
        return self._live
