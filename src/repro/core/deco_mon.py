"""Deco_mon: the monitoring scheme (Section 4.2.1, Figure 3).

Per global window, three synchronized steps — three communication flows:

1. *Initialization* (up): every local node sends its measured event
   rates to the root.
2. *Verification* (down): the root derives each node's actual local
   window size and sends it back.
3. *Calculation* (up): local nodes aggregate exactly that many events
   and send the partial result; the root combines and emits.

Deco_mon always produces correct results — it never predicts — but pays
three flows of latency per window and blocks both sides in between.
"""

from __future__ import annotations


from typing import Any

from repro.core.context import SchemeContext
from repro.core.local import LocalBehaviorBase
from repro.core.protocol import (LocalWindowReport, Message, RateReport,
                                 WindowAssignment)
from repro.core.root import ReportCollector, RootBehaviorBase
from repro.obs import events as ev
from repro.runtime.api import ROOT_NAME
from repro.runtime.node import RuntimeNode


class DecoMonLocal(LocalBehaviorBase):
    """Local node: report rates, await size, aggregate, repeat."""

    #: Blocking scheme: events are only buffered until the root's
    #: assignment arrives; aggregation runs as a burst afterwards.
    INGEST_PROCESS_FACTOR = 0.35

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._sent_initial_rate = False
        #: The pending assignment: (window, size, start) or None.
        self._assignment: tuple[int, int, int] | None = None

    def on_events(self, node: RuntimeNode) -> None:
        if not self._sent_initial_rate:
            # Bootstrap: the first initialization step fires once events
            # (and hence a measurable rate) exist.
            self._sent_initial_rate = True
            self.send_up(node, RateReport(
                sender=node.name, window_index=0,
                event_rate=self.take_rate(),
                events_seen=self._rate_mark_count))
        self._try_complete(node)

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, WindowAssignment):
            self._assignment = (msg.window_index, msg.predicted_size,
                                msg.start_position)
            if msg.release_before >= 0:
                self.buffer.release_before(msg.release_before)
            self.apply_watermark(msg.watermark)
            self._try_complete(node)

    def _try_complete(self, node: RuntimeNode) -> None:
        if self._assignment is None:
            return
        window, size, start = self._assignment
        if self.available < start + size:
            return  # wait for more events
        self._assignment = None

        def send(partial: Any) -> None:
            self.send_up(node, LocalWindowReport(
                sender=node.name, window_index=window, epoch=0,
                partial=partial, slice_count=size,
                event_rate=self._last_rate, spec_start=start,
                slice_start=start))
            # Pipeline the next window's initialization step.
            self.send_up(node, RateReport(
                sender=node.name, window_index=window + 1,
                event_rate=self.take_rate(), events_seen=size))

        self.aggregate_then(node, start, start + size, send)


class DecoMonRoot(RootBehaviorBase):
    """Root: collect rates, assign actual sizes, combine partials."""

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.rates = ReportCollector(self.n_nodes)
        self.reports = ReportCollector(self.n_nodes)
        self._assigned_window = -1

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, RateReport):
            self.rates.add(msg.window_index, self.node_index(msg.sender),
                           msg)
            self._maybe_assign(node)
        elif isinstance(msg, LocalWindowReport):
            self.reports.add(msg.window_index,
                             self.node_index(msg.sender), msg)
            self._maybe_emit(node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"Deco_mon root got {type(msg).__name__}")

    def _maybe_assign(self, node: RuntimeNode) -> None:
        """Verification step: all rates in -> send actual sizes."""
        g = self.next_emit
        if (g >= self.ctx.n_windows or g <= self._assigned_window
                or not self.rates.complete(g)):
            return
        self._assigned_window = g
        self.rates.pop(g)
        spans = self.actual_spans(g)
        watermark = self.watermark.current
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, node.now, node.name,
                         transition="assign", window=g)
        self.broadcast(node, lambda a: WindowAssignment(
            sender=ROOT_NAME, window_index=g, epoch=0,
            predicted_size=spans[a][1] - spans[a][0], delta=0,
            start_position=spans[a][0], release_before=spans[a][0],
            watermark=watermark))

    def _maybe_emit(self, node: RuntimeNode) -> None:
        g = self.next_emit
        if g >= self.ctx.n_windows or not self.reports.complete(g):
            return
        partial = self.combine_reports(self.reports.pop(g))
        self.emit(node, g, self.fn.lower(partial), self.actual_spans(g),
                  up_flows=2, down_flows=1,
                  after=lambda: self._maybe_assign(node))
