"""Local node behaviour base class.

Local nodes are the middle layer of Figure 1: "wimpy but smart devices"
that ingest events from their co-located data stream nodes, run the
local count-window operator, and talk to the root.  This base class owns
the event buffer (absolute positions in the node's stream), event-rate
measurement, and send/metrics plumbing; schemes subclass it with their
state machines.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.context import SchemeContext
from repro.core.protocol import Message, SourceBatch, raw_event_count
from repro.runtime.node import RuntimeNode
from repro.runtime.api import ROOT_NAME, local_name
from repro.streams.batch import EventBatch
from repro.streams.event import TICKS_PER_SECOND
from repro.streams.watermark import WatermarkTracker


class LocalBehaviorBase:
    """Common machinery for every scheme's local node behaviour."""

    #: CPU factor per arriving event.  Non-blocking schemes (Deco_async,
    #: Approx) aggregate eagerly as events arrive: factor 1.0, window
    #: completion free.  Blocking schemes (Deco_mon, Deco_sync) cannot
    #: start the window computation until the root's message arrives
    #: (Sections 4.2.1-4.2.2), so they only *buffer* on arrival (cheap)
    #: and pay the aggregation as a burst via :meth:`aggregate_then` —
    #: which is exactly why they "have to wait for new messages from the
    #: root" and lose throughput (Section 5.2).
    INGEST_PROCESS_FACTOR = 1.0

    #: Bounded memory: how many local-window-sized chunks of unreleased
    #: events a node may retain before it stops admitting input
    #: (Section 3: local nodes "can store a window of up to 1 million
    #: events"; Deco_sync/async "buffer all events in the memory" only
    #: up to the verified boundary).  Saturated runs use this as the
    #: backpressure signal.
    BACKPRESSURE_WINDOWS = 8

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        self.index = index
        self.ctx = ctx
        self.query = ctx.query
        self.fn = ctx.query.aggregate
        #: This node's stream name — the key standing queries are
        #: admitted under in the multi-query engine.
        self.stream = local_name(index)
        #: The aggregate-bound event buffer: range lifts go through its
        #: range-aggregation index (see :mod:`repro.core.agg_index`).
        #: Constructed through the context so every behaviour of a run
        #: shares one buffer policy.
        self.buffer = ctx.new_buffer(fn=self.fn)
        self.watermark = WatermarkTracker()
        # Rate measurement state: events and first/last timestamps since
        # the previous rate report (Section 4.3.3).
        self._rate_mark_count = 0
        self._rate_mark_ts: int | None = None
        #: The latest ingested batch: its last timestamp is read only
        #: when a rate is taken, not on every ingest.
        self._last_events: EventBatch | None = None
        self._last_rate = 0.0
        workload = ctx.workload
        #: The steady-state retention budget (fixed for the run).
        self._budget = self.BACKPRESSURE_WINDOWS * max(
            1, workload.window_size // workload.n_nodes)

    # -- Behaviour protocol -------------------------------------------------

    def on_start(self, node: RuntimeNode) -> None:
        """Default: nothing to do until events or control arrive."""

    def input_paused(self) -> bool:
        """Backpressure signal for the input feeder.

        True while the node retains more unreleased events than its
        memory budget allows.
        """
        return self.buffer.retained > self.retention_budget()

    def retention_budget(self) -> int:
        """Unreleased events this node may hold before pausing input.

        The default covers normal operation; schemes with a centralized
        forwarding phase override this to a tight bootstrap budget while
        forwarding (enough for the initialization windows plus slack, so
        backpressure can never deadlock the bootstrap) — holding more
        would only pile un-aggregated raw events onto the root.
        """
        return self._budget

    def bootstrap_budget(self, n_bootstrap_windows: int) -> int:
        """Retention budget while centrally forwarding the first
        ``n_bootstrap_windows`` global windows."""
        workload = self.ctx.workload
        per_node = max(1, workload.window_size // workload.n_nodes)
        g = min(n_bootstrap_windows, workload.n_windows)
        return int(workload.bounds[g, self.index]) + per_node

    def service_time(self, node: RuntimeNode, msg: Any) -> float:
        """CPU cost: ingest+aggregate for events, overhead for control."""
        if isinstance(msg, SourceBatch):
            return (len(msg.events) * node.profile.per_event_process_s()
                    * self.INGEST_PROCESS_FACTOR
                    + node.profile.message_overhead_s)
        return node.profile.message_overhead_s

    def on_message(self, node: RuntimeNode, msg: Any) -> None:
        if isinstance(msg, SourceBatch):
            self._ingest(node, msg)
        elif isinstance(msg, Message):
            self.handle_control(node, msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {type(msg).__name__}")

    # -- ingestion -----------------------------------------------------------

    def _ingest(self, node: RuntimeNode, msg: SourceBatch) -> None:
        events = msg.events
        n = len(events)
        if n == 0:
            return
        if self._rate_mark_ts is None:
            self._rate_mark_ts = events.first_ts
        self._last_events = events
        self._rate_mark_count += n
        self.buffer.append(events)
        engine = self.ctx.engine
        if engine is not None:
            # Standing queries observe the same ingest order the scheme
            # sees; the engine's storage is fully separate from
            # self.buffer, so backpressure and scheme results are
            # untouched by however many queries are registered.
            engine.append(self.stream, events)
        node.account_events(n)
        self.on_events(node)

    def on_events(self, node: RuntimeNode) -> None:
        """Scheme hook: new events are available in :attr:`buffer`."""

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        """Scheme hook: a control message arrived from the root."""

    # -- helpers -----------------------------------------------------------------

    @property
    def available(self) -> int:
        """Absolute stream position up to which events have arrived."""
        return self.buffer.end

    def take_rate(self) -> float:
        """Measured event rate since the previous call (events/s).

        "When the local buffer is full, the local node calculates the
        event rate and sends [it] to the root node" (Section 4.3.3); the
        measurement interval is from the previous report to now.
        """
        if (self._rate_mark_ts is None or self._last_events is None
                or self._rate_mark_count == 0):
            return self._last_rate
        last_ts = self._last_events.last_ts
        span_ticks = last_ts - self._rate_mark_ts
        if span_ticks <= 0:
            return self._last_rate
        rate = self._rate_mark_count * TICKS_PER_SECOND / span_ticks
        self._last_rate = rate
        self._rate_mark_count = 0
        self._rate_mark_ts = last_ts
        return rate

    def lift_range(self, start: int, end: int) -> Any:
        """Partial aggregate of buffered positions ``[start, end)``.

        Served from the buffer's range-aggregation index: O(log n)
        combines over precomputed chunk partials for decomposable
        functions, a direct lift for holistic ones.  Only host time
        differs from a from-scratch lift — the partial's bits and the
        simulated CPU cost model are unchanged.
        """
        return self.buffer.lift_range(start, end)

    def aggregate_then(self, node: RuntimeNode, start: int, end: int,
                       then: Callable[[Any], None]) -> None:
        """Aggregate ``[start, end)`` as a CPU burst, then call
        ``then(partial)`` when the burst completes.

        Used by the blocking schemes, whose window aggregation cannot
        overlap with waiting for the root.
        """
        partial = self.lift_range(start, end)
        done = node.occupy(
            (end - start) * node.profile.per_event_process_s())
        if done > node.now:
            node.schedule_at(done, lambda: then(partial))
        else:
            then(partial)

    def send_up(self, node: RuntimeNode, msg: Message) -> None:
        """Send a message to the root, charging serialization CPU for
        any raw events it carries."""
        n_raw = raw_event_count(msg)
        if n_raw:
            node.occupy(n_raw * node.profile.per_event_serialize_s())
        node.send(ROOT_NAME, msg)

    def apply_watermark(self, watermark: int) -> None:
        """Adopt a root-provided watermark (drop earlier events is the
        callers' job via ``release_before``)."""
        if watermark > self.watermark.current:
            self.watermark.advance(watermark)
