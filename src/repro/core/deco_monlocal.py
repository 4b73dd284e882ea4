"""Deco_monlocal: the root-less monitoring variant (Section 5.1).

The microbenchmark modifies Deco_mon so that coordination happens among
the local nodes themselves: "in the initialization step, local nodes
communicate with each other to exchange event rates.  The verification
steps are moved to each local node.  Only if a local node collects all
event rates from other nodes, it starts to calculate window sizes.  The
calculation step is the same as Deco_mon.  The root node then has to
inform local nodes to start the next window."  Three flows per window
remain, but the peer exchange costs O(n^2) messages and every node
synchronizes with every other — which is why its latency (10.24 ms at
32 nodes) is ~20x Deco_mon's (0.526 ms).

Local window sizes are computed from the exchanged rates via the
Section 4.1 proportional split, so (unlike the oracle-backed schemes)
the window boundaries are rate-derived; the paper evaluates this
variant on latency only.
"""

from __future__ import annotations


from typing import Any

from repro.core.context import SchemeContext
from repro.core.local import LocalBehaviorBase
from repro.core.protocol import (LocalWindowReport, Message, RateReport,
                                 StartWindow)
from repro.core.root import ReportCollector, RootBehaviorBase
from repro.core.slicing import mon_local_sizes
from repro.runtime.api import ROOT_NAME, local_index, local_name
from repro.runtime.node import RuntimeNode


class DecoMonLocalPeerLocal(LocalBehaviorBase):
    """Local node: exchange rates with peers, size own window, report."""

    #: Blocking like Deco_mon: no window work until all peer rates are
    #: in.
    INGEST_PROCESS_FACTOR = 0.35

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._window = 0
        self._position = 0
        self._started = False
        #: Peer rates for the current window, own rate included.
        self._rates: dict[int, float] = {}
        self._pending_size: int | None = None

    # -- peer exchange (initialization step) -----------------------------------

    def _broadcast_rate(self, node: RuntimeNode) -> None:
        rate = self.take_rate() or 1.0
        self._rates[self.index] = rate
        report = RateReport(sender=node.name, window_index=self._window,
                            event_rate=rate, events_seen=0)
        for a in range(self.ctx.n_nodes):
            if a != self.index:
                node.send(local_name(a), report)
        self._maybe_size(node)

    def on_events(self, node: RuntimeNode) -> None:
        if not self._started:
            self._started = True
            self._broadcast_rate(node)
        self._try_complete(node)

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, RateReport):
            if msg.window_index != self._window:
                return  # stale exchange from a previous window
            self._rates[local_index(msg.sender)] = msg.event_rate
            self._maybe_size(node)
        elif isinstance(msg, StartWindow):
            # The root's confirmation: begin the next window's exchange.
            self._window = msg.window_index
            self._rates = {}
            self._broadcast_rate(node)

    # -- verification moved to the local node -----------------------------------

    def _maybe_size(self, node: RuntimeNode) -> None:
        if len(self._rates) < self.ctx.n_nodes:
            return
        rates = [self._rates[a] for a in range(self.ctx.n_nodes)]
        sizes = mon_local_sizes(rates, self.ctx.window_size)
        self._pending_size = sizes[self.index]
        self._try_complete(node)

    # -- calculation step ----------------------------------------------------------

    def _try_complete(self, node: RuntimeNode) -> None:
        if self._pending_size is None:
            return
        start, size = self._position, self._pending_size
        if self.available < start + size:
            return
        self._pending_size = None
        window = self._window

        def send(partial: Any) -> None:
            self.send_up(node, LocalWindowReport(
                sender=node.name, window_index=window, epoch=0,
                partial=partial, slice_count=size,
                event_rate=self._last_rate, spec_start=start,
                slice_start=start))

        self.aggregate_then(node, start, start + size, send)
        self._position = start + size
        self.buffer.release_before(self._position)


class DecoMonLocalPeerRoot(RootBehaviorBase):
    """Root: combine partials and signal the next window."""

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.reports = ReportCollector(self.n_nodes)

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if not isinstance(msg, LocalWindowReport):  # pragma: no cover
            raise TypeError(
                f"Deco_monlocal root got {type(msg).__name__}")
        self.reports.add(msg.window_index, self.node_index(msg.sender),
                         msg)
        self._maybe_emit(node)

    def _maybe_emit(self, node: RuntimeNode) -> None:
        g = self.next_emit
        if g >= self.ctx.n_windows or not self.reports.complete(g):
            return
        reports = self.reports.pop(g)
        partial = self.combine_reports(reports)
        # Spans are rate-derived (not oracle boundaries): record what the
        # locals actually aggregated.
        spans = {a: (r.spec_start, r.spec_start + r.slice_count)
                 for a, r in reports.items()}
        next_window = g + 1
        self.emit(node, g, self.fn.lower(partial), spans,
                  up_flows=2, down_flows=1,
                  after=lambda: self.broadcast(
                      node, lambda a: StartWindow(
                          sender=ROOT_NAME, window_index=next_window,
                          epoch=0,
                          watermark=self.watermark.current)))
