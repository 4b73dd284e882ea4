"""Discrete-event simulation kernel.

A minimal, deterministic event-driven scheduler: callbacks are executed
in (time, insertion) order from a binary heap.  All simulation components
(network links, node CPU queues, timeouts) are built on this kernel, so a
whole cluster run is a single-threaded, reproducible computation.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator

from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.runtime.api import PHASE_PROTOCOL

__all__ = ["ScheduledEvent", "Simulator"]


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "phase", "rank", "sort_seq", "callback",
                 "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None],
                 sim: "Simulator | None" = None,
                 sort_seq: int | None = None,
                 phase: int = PHASE_PROTOCOL,
                 rank: tuple[str, ...] = ()) -> None:
        self.time = time
        self.seq = seq
        self.phase = phase
        #: Canonical same-(time, phase) ordering key.  Events carrying
        #: a rank run after unranked ones and sort by the rank itself
        #: (e.g. network sends by ``(src, dst)``), making their mutual
        #: order — and everything downstream of shared-resource
        #: contention — independent of insertion order.
        self.rank = rank
        #: Tie-break rank among equal-(time, phase) events.  Equals
        #: ``seq`` normally; a :class:`Simulator` with a nonzero
        #: ``tiebreak_salt`` permutes it (see the determinism contract
        #: in :mod:`repro.analysis.determinism`).
        self.sort_seq = seq if sort_seq is None else sort_seq
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancellation is lazy: the entry stays in the heap and is
        discarded when it surfaces, but the owning simulator's live
        counter is decremented immediately so :meth:`Simulator.pending`
        stays O(1).
        """
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._live -= 1


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
        #: Heap of ``(time, phase, rank, sort_seq, event)`` entries:
        #: native tuples, so every heap comparison runs in C, and
        #: ``sort_seq`` is unique, so the events themselves are never
        #: compared.
        self._queue: list[tuple[float, int, tuple[str, ...], int,
                                ScheduledEvent]] = []
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
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._now}")
        if not math.isfinite(time):
            raise SimulationError(f"non-finite schedule time {time}")
        sort_seq = self._seq ^ self.tiebreak_salt
        event = ScheduledEvent(time, self._seq, callback, self,
                               sort_seq=sort_seq, phase=phase, rank=rank)
        self._seq += 1
        heapq.heappush(self._queue,
                       (time, phase, rank, sort_seq, event))
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
        # Hot loop: hoist bound/global lookups out of the per-event
        # iteration (the kernel executes millions of events per run).
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and not self._stopped:
                event = queue[0][4]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and event.time > until:
                    self._now = until
                    break
                heappop(queue)
                self._live -= 1
                # Consumed: a late cancel() on this handle must be a
                # no-op, not a second live-counter decrement.
                event.cancelled = True
                self._now = event.time
                event.callback()
                self.events_executed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            else:
                if until is not None and not self._stopped:
                    self._now = max(self._now, until)
        finally:
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
            event = queue[0][4]
            if not event.cancelled:
                return event
            heapq.heappop(queue)
        return None

    def live_events(self) -> Iterator[ScheduledEvent]:
        """Every live scheduled event, in no particular order."""
        return (entry[4] for entry in self._queue
                if not entry[4].cancelled)

    def clear(self) -> None:
        """Drop every scheduled event (teardown of a finished run).

        The dropped events are marked cancelled, so a handle someone
        still holds stays inert and ``pending()`` consistent.
        """
        for entry in self._queue:
            entry[4].cancelled = True
        self._queue.clear()
        self._live = 0

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events.

        O(1): a counter is maintained on schedule / cancel / execution
        instead of scanning the heap (which still holds lazily-deleted
        cancelled entries).
        """
        return self._live
