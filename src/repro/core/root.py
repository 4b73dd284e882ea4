"""Root node behaviour base class.

The root is the top of Figure 1's topology: it coordinates local nodes,
verifies predictions, combines partial results, and emits every global
window's final aggregate.  This base class owns report collection,
in-order window emission (with a CPU burst for non-incremental
finalization), watermarks, and down-flow broadcasting; schemes subclass
it with their coordination logic.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.buffers import PositionBuffer
from repro.core.context import SchemeContext
from repro.core.protocol import (CorrectionReport, LocalWindowReport,
                                 Message, RawEvents, ResendRequest)
from repro.core.records import WindowOutcome
from repro.obs import events as ev
from repro.runtime.node import RuntimeNode
from repro.runtime.api import local_index, local_name
from repro.streams.watermark import WatermarkTracker


class RootBehaviorBase:
    """Common machinery for every scheme's root behaviour."""

    #: CPU factor per raw event delivered to the root (ingest path).
    RAW_EVENT_FACTOR = 1.0
    #: CPU factor per raw buffer event inside a window report.
    REPORT_EVENT_FACTOR = 1.0
    #: CPU factor per window event spent at emission time (the
    #: non-incremental "aggregate everything now" burst; 0 for
    #: incremental systems).
    EMIT_BURST_FACTOR = 0.0

    #: Per-node raw buffers of the roots that aggregate windows
    #: centrally (``self.raw = self.new_raw_buffers()``).
    raw: list[PositionBuffer]

    def __init__(self, ctx: SchemeContext) -> None:
        self.ctx = ctx
        self.workload = ctx.workload
        self.query = ctx.query
        self.fn = ctx.query.aggregate
        self.result = ctx.result
        self.watermark = WatermarkTracker()
        #: Index of the next window to emit (strictly in order).
        self.next_emit = 0
        #: Set by a root when it stops accepting raw events (the switch
        #: to decentralized mode); later forwardings are only dropped.
        self.raw_closed = False

    # -- Behaviour protocol ---------------------------------------------------

    def on_start(self, node: RuntimeNode) -> None:
        """Default: wait for up-flows."""

    def service_time(self, node: RuntimeNode, msg: Any) -> float:
        """Default CPU costs by message class; schemes tune the factors."""
        per_event = node.profile.per_event_process_s()
        overhead = node.profile.message_overhead_s
        if isinstance(msg, RawEvents):
            if self.raw_closed:
                # Stale forwardings after the switch to decentralized
                # mode: dequeue and drop, no aggregation.
                return overhead + 0.05 * len(msg.events) * per_event
            return overhead + len(msg.events) * per_event * \
                self.RAW_EVENT_FACTOR
        if isinstance(msg, LocalWindowReport):
            n_raw = sum(len(b) for b in (msg.buffer, msg.fbuffer,
                                         msg.ebuffer) if b is not None)
            return overhead + n_raw * per_event * self.REPORT_EVENT_FACTOR
        if isinstance(msg, CorrectionReport):
            return overhead + len(msg.last_event) * per_event
        return overhead

    def on_message(self, node: RuntimeNode, msg: Any) -> None:
        if not isinstance(msg, Message):  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {type(msg).__name__}")
        self.handle(node, msg)

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        """Scheme hook: dispatch an up-flow message."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of local nodes."""
        return self.ctx.n_nodes

    def node_index(self, sender: str) -> int:
        """Local node index from a message's sender name."""
        return local_index(sender)

    def actual_spans(self, window: int) -> dict[int, tuple[int, int]]:
        """Ground-truth per-node spans of one global window."""
        return {a: self.workload.span(window, a)
                for a in range(self.n_nodes)}

    def new_raw_buffers(self) -> list[PositionBuffer]:
        """One aggregate-bound raw-event buffer per local node.

        Binding the run's aggregate lets root-side window aggregation
        (bootstrap and centralized paths) reuse the buffers'
        range-aggregation index instead of re-lifting raw ranges.
        Buffers come from the context's single construction point so
        the whole run shares one buffer policy (never the multi-query
        engine's slice stores — those track local ingest, not the
        root's view).
        """
        return [self.ctx.new_buffer(fn=self.fn)
                for _ in range(self.n_nodes)]

    def aggregate_raw_window(
            self, window: int
    ) -> tuple[dict[int, tuple[int, int]], Any] | None:
        """Centrally aggregate one global window from :attr:`raw`.

        Returns the window's ground-truth spans and the combined
        partial over them, or None while some node's forwarded events
        end short of its span.
        """
        # Checked on every raw message: cheap, and stops at the first
        # node that is short.
        ends = self.workload.bounds[window + 1]
        if not all(self.raw[a].end >= ends[a]
                   for a in range(self.n_nodes)):
            return None
        spans = self.actual_spans(window)
        partial = self.fn.identity()
        for a, (start, end) in spans.items():
            partial = self.fn.combine(
                partial, self.raw[a].lift_range(start, end))
        return spans, partial

    def combine_reports(self, reports: dict[int, Any]) -> Any:
        """Combine one window's reported partials in node order."""
        return self.fn.combine_all(
            r.partial for _, r in sorted(reports.items()))

    def ingest_positioned_raw(self, node: RuntimeNode, msg: RawEvents,
                              store: PositionBuffer) -> bool:
        """Append position-tagged raw events into ``store``.

        Detects gaps left by dropped messages (failure model): on a
        gap, NACKs the sender with a :class:`ResendRequest` and returns
        False; overlapping retransmissions are trimmed.
        """
        a = self.node_index(msg.sender)
        if msg.start < 0:
            store.append(msg.events)
            return True
        end = store.end
        if msg.start > end:
            node.send(local_name(a), ResendRequest(sender=node.name,
                                                   from_position=end))
            return False
        events = msg.events
        if msg.start < end:
            events = events.drop(end - msg.start)
        store.append(events)
        return True

    def broadcast(self, node: RuntimeNode,
                  make_msg: Callable[[int], Message | None]) -> None:
        """Send ``make_msg(a)`` to every local node (one down-flow)."""
        for a in range(self.n_nodes):
            msg = make_msg(a)
            if msg is not None:
                node.send(local_name(a), msg)

    def emit(self, node: RuntimeNode, window: int, value: float,
             spans: dict[int, tuple[int, int]], *, corrected: bool = False,
             up_flows: int = 1, down_flows: int = 0,
             after: Callable[[], None] | None = None) -> None:
        """Finalize one global window.

        Occupies the root CPU for the emission burst (per
        :attr:`EMIT_BURST_FACTOR`), records the outcome at the burst's
        completion time, advances the watermark to the window's last
        event, and — after the burst — runs ``after`` (typically: send
        the next assignments) and stops the simulation once the last
        window is out.
        """
        if window != self.next_emit:
            raise RuntimeError(
                f"emit out of order: window {window}, expected "
                f"{self.next_emit}")
        burst = (self.ctx.window_size * self.EMIT_BURST_FACTOR
                 * node.profile.per_event_process_s())
        done = node.occupy(burst) if burst > 0 else node.now
        outcome = WindowOutcome(index=window, result=value,
                                emit_time=done, spans=dict(spans),
                                corrected=corrected, up_flows=up_flows,
                                down_flows=down_flows)
        self.result.outcomes.append(outcome)
        if corrected:
            self.result.correction_steps += 1
        boundary_ts = int(self.workload.boundary_ts[window])
        if boundary_ts > self.watermark.current:
            self.watermark.advance(boundary_ts)
        self.next_emit += 1
        self.result.sim_time = done
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.WINDOW, done, node.name, phase="emit",
                         window=window, corrected=corrected,
                         up_flows=up_flows, down_flows=down_flows)
            tracer.inc("windows_emitted", node.name)

        def finish() -> None:
            if after is not None:
                after()
            if self.next_emit >= self.ctx.n_windows:
                node.request_stop()

        if done > node.now:
            node.schedule_at(done, finish)
        else:
            finish()


class ReportCollector:
    """Collects one message per local node per window index."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._by_window: dict[int, dict[int, Message]] = {}

    def add(self, window: int, node_index: int, msg: Message) -> None:
        """Store a node's report for a window (latest wins)."""
        self._by_window.setdefault(window, {})[node_index] = msg

    def complete(self, window: int) -> bool:
        """Whether every node has reported for ``window``."""
        return len(self._by_window.get(window, {})) == self.n_nodes

    def get(self, window: int) -> dict[int, Message]:
        """All reports of one window, by node index."""
        return self._by_window.get(window, {})

    def pop(self, window: int) -> dict[int, Message]:
        """Remove and return one window's reports."""
        return self._by_window.pop(window, {})

    def drop_at_or_after(self, window: int) -> int:
        """Discard reports for windows ``>= window`` (async rollback).

        Returns the number of discarded reports.
        """
        stale = [g for g in self._by_window if g >= window]
        dropped = 0
        for g in stale:
            dropped += len(self._by_window.pop(g))
        return dropped
