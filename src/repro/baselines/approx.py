"""Approx: approximate decentralized aggregation (Section 4.1).

The naive single-flow approach: the first global window is collected
centrally; from its observed event rates the root derives *static* local
window sizes and sends them once.  Every later window reuses those sizes
— local nodes aggregate independently and ship only partial results, so
throughput and network cost are optimal, but "when the event rate
changes and the partial result is still calculated with the static local
window size, the final result is incorrect" (Fig. 10d).
"""

from __future__ import annotations

from typing import Any

from repro.core.context import SchemeContext
from repro.core.local import LocalBehaviorBase
from repro.core.protocol import (LocalWindowReport, Message, RawEvents,
                                 SourceBatch, WindowAssignment)
from repro.core.root import ReportCollector, RootBehaviorBase
from repro.runtime.api import ROOT_NAME
from repro.runtime.node import RuntimeNode


class ApproxLocal(LocalBehaviorBase):
    """Forwards raw events for window 0, then loops on a static size."""

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._forwarded = 0
        self._static_size = None
        self._position = None  # start of the window being filled
        self._window = 1

    def service_time(self, node: RuntimeNode, msg: Any) -> float:
        if isinstance(msg, SourceBatch) and self._static_size is None:
            # Initialization phase: buffer for later local use *and*
            # serialize for forwarding.
            return (len(msg.events)
                    * (node.profile.per_event_serialize_s()
                       + node.profile.per_event_process_s()
                       * self.INGEST_PROCESS_FACTOR)
                    + node.profile.message_overhead_s)
        return super().service_time(node, msg)

    def retention_budget(self) -> int:
        if self._static_size is None:
            # Forwarding phase: hold just enough for window 0 + slack.
            return self.bootstrap_budget(1)
        return super().retention_budget()

    def on_events(self, node: RuntimeNode) -> None:
        if self._static_size is None:
            batch = self.buffer.get_range(self._forwarded, self.available)
            if len(batch):
                node.send(ROOT_NAME, RawEvents(sender=node.name,
                                               window_index=0,
                                               events=batch))
                self._forwarded = self.available
            return
        self._drain(node)

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, WindowAssignment):
            # The one-time static assignment: size and window-0 end.
            self._static_size = msg.predicted_size
            self._position = msg.start_position
            self.buffer.release_before(self._position)
            self._drain(node)

    def _drain(self, node: RuntimeNode) -> None:
        """Emit every complete static local window (single flow, never
        blocks)."""
        while self.available >= self._position + self._static_size:
            start = self._position
            end = start + self._static_size
            partial = self.lift_range(start, end)
            self.send_up(node, LocalWindowReport(
                sender=node.name, window_index=self._window, epoch=0,
                partial=partial, slice_count=self._static_size,
                event_rate=self.take_rate(), spec_start=start))
            self._position = end
            self.buffer.release_before(end)
            self._window += 1


class ApproxRoot(RootBehaviorBase):
    """Window 0 centrally; later windows from static partials only."""

    RAW_EVENT_FACTOR = 1.0

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.raw = self.new_raw_buffers()
        self.reports = ReportCollector(self.n_nodes)
        #: Static per-node sizes, fixed after window 0.
        self.static_sizes: dict[int, int] = {}

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, RawEvents):
            if self.raw_closed:
                return  # late initialization forwardings; dropped
            a = self.node_index(msg.sender)
            self.raw[a].append(msg.events)
            node.account_events(len(msg.events))
            self._try_emit_first(node)
        elif isinstance(msg, LocalWindowReport):
            a = self.node_index(msg.sender)
            self.reports.add(msg.window_index, a, msg)
            self._try_emit_static(node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"Approx root got {type(msg).__name__}")

    def _try_emit_first(self, node: RuntimeNode) -> None:
        if self.next_emit != 0:
            return
        aggregated = self.aggregate_raw_window(0)
        if aggregated is None:
            return
        spans, partial = aggregated

        def assign() -> None:
            # One-time static split from window 0's observed sizes;
            # forwardings still in flight are only dropped from here on.
            self.raw_closed = True
            for a, (start, end) in spans.items():
                self.static_sizes[a] = end - start
            self.broadcast(node, lambda a: WindowAssignment(
                sender=ROOT_NAME, window_index=1, epoch=0,
                predicted_size=self.static_sizes[a], delta=0,
                start_position=spans[a][1]))

        for a, (_, end) in spans.items():
            self.raw[a].release_before(end)
        self.emit(node, 0, self.fn.lower(partial), spans,
                  up_flows=1, down_flows=1, after=assign)

    def _try_emit_static(self, node: RuntimeNode) -> None:
        while (0 < self.next_emit < self.ctx.n_windows
               and self.reports.complete(self.next_emit)):
            g = self.next_emit
            reports = self.reports.pop(g)
            partial = self.combine_reports(reports)
            # The spans Approx actually aggregated: static splits, which
            # drift from the ground truth as rates change.
            spans = {a: (r.spec_start, r.spec_start + r.slice_count)
                     for a, r in reports.items()}
            self.emit(node, g, self.fn.lower(partial), spans,
                      up_flows=1, down_flows=0)
