"""Deco_sync: the synchronous prediction scheme (Section 4.2.2).

Per global window (from the third onward) the scheme runs prediction ->
calculation -> verification:

* *Prediction* (root, Algorithm 1): predicted size = previous actual
  size; delta = |difference of the last two| (smoothed over the last
  ``m`` windows).  One down-flow.
* *Calculation* (local, Algorithm 2): build a local slice of
  ``l-hat - Delta`` events (partially aggregated) and a local buffer of
  ``2 * Delta`` raw events; ship partial + buffer + event rate in one
  up-flow, then block.
* *Verification* (root, Algorithm 3): check Eq. 5-6 per node.  If all
  predictions hold, combine partials with the needed buffer prefix and
  emit; otherwise run the correction step (Section 4.3.1): one extra
  down-flow with the actual sizes, one extra up-flow with corrected
  partials.

The first two global windows bootstrap centrally: local nodes forward
raw events (while retaining them), and the root aggregates and learns
the first two actual local window sizes.
"""

from __future__ import annotations


from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.core.context import SchemeContext
from repro.core.local import LocalBehaviorBase
from repro.core.prediction import PREDICTORS
from repro.core.protocol import (CorrectionReport, CorrectionRequest,
                                 LocalWindowReport, Message, RawEvents,
                                 ResendRequest, WindowAssignment,
                                 trace_fields)
from repro.core.root import ReportCollector, RootBehaviorBase
from repro.core.slicing import SyncLayout, sync_layout
from repro.core.verification import sync_prediction_ok
from repro.obs import events as ev
from repro.runtime.node import RuntimeNode

if TYPE_CHECKING:
    from repro.runtime.node import Timeout

#: Number of bootstrap windows collected centrally.
BOOTSTRAP_WINDOWS = 2


class DecoSyncLocal(LocalBehaviorBase):
    """Local node of Deco_sync: slice + buffer, then block.

    "Creating a local slice is a synchronous computation between all
    nodes.  It is only created when the previous global window ends"
    (Section 4.2.2): events arriving while the node waits for the root
    are buffered, and the slice aggregation runs as a burst once the
    assignment arrives.
    """

    INGEST_PROCESS_FACTOR = 0.35

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._forwarded = 0
        self._bootstrapping = True
        #: Pending assignment: (window, start, layout) or None.
        self._assignment: tuple[int, int, SyncLayout] | None = None
        #: Pending correction: (window, start, actual_size) or None.
        self._correction: tuple[int, int, int] | None = None
        #: Failure model (Section 4.3.4): the last up-flow sent, kept
        #: for timeout-driven retransmission; (window, message).
        self._last_sent: Message | None = None
        self._timeout: "Timeout | None" = None

    # -- failure model ---------------------------------------------------------

    def _arm_timeout(self, node: RuntimeNode) -> None:
        if self.ctx.retransmit_timeout_s is None:
            return
        if self._timeout is None:
            from repro.runtime.node import Timeout
            self._timeout = Timeout(node,
                                    lambda: self._retransmit(node))
        self._timeout.arm(self.ctx.retransmit_timeout_s)

    def _cancel_timeout(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()

    def _retransmit(self, node: RuntimeNode) -> None:
        """No answer from the root: re-send the last report (the root
        may have missed it, or its reply may have been dropped)."""
        if self._last_sent is None:
            return
        self.ctx.result.retransmissions += 1
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.MSG_RETRANSMIT, node.now, node.name,
                         reason="timeout",
                         **trace_fields(self._last_sent))
            tracer.inc("retransmissions", node.name)
        self.send_up(node, self._last_sent)
        self._arm_timeout(node)

    def _send_report(self, node: RuntimeNode, msg: Message) -> None:
        self._last_sent = msg
        self.send_up(node, msg)
        self._arm_timeout(node)

    def retention_budget(self) -> int:
        if self._bootstrapping:
            # Forwarding phase: hold just enough for windows 0-1 + slack.
            return self.bootstrap_budget(BOOTSTRAP_WINDOWS)
        return super().retention_budget()

    def on_events(self, node: RuntimeNode) -> None:
        if self._bootstrapping:
            self._forward_bootstrap(node)
            return
        self._try_calculate(node)
        self._try_correct(node)

    def _forward_bootstrap(self, node: RuntimeNode) -> None:
        batch = self.buffer.get_range(self._forwarded, self.available)
        if len(batch):
            # Forward raw events but *retain* them: once prediction
            # starts, windows are aggregated from the local store.
            self.send_up(node, RawEvents(sender=node.name,
                                         window_index=-1, events=batch,
                                         start=self._forwarded))
            self._forwarded = self.available

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, WindowAssignment):
            self._bootstrapping = False
            self._cancel_timeout()
            if (self._last_sent is not None and self._assignment is None
                    and self._correction is None
                    and msg.window_index
                    == getattr(self._last_sent, "window_index", -2)):
                # Duplicate assignment for a window we already reported:
                # the root missed our report (failure model) — resend.
                self.ctx.result.retransmissions += 1
                tracer = self.ctx.tracer
                if tracer.enabled:
                    tracer.event(ev.MSG_RETRANSMIT, node.now,
                                 node.name, reason="duplicate_assignment",
                                 **trace_fields(self._last_sent))
                    tracer.inc("retransmissions", node.name)
                self.send_up(node, self._last_sent)
                self._arm_timeout(node)
                return
            layout = sync_layout(msg.predicted_size, msg.delta)
            self._assignment = (msg.window_index, msg.start_position,
                                layout)
            if msg.release_before >= 0:
                self.buffer.release_before(msg.release_before)
            self.apply_watermark(msg.watermark)
            self._try_calculate(node)
        elif isinstance(msg, CorrectionRequest):
            self._assignment = None  # the prediction was wrong
            self._cancel_timeout()
            self._correction = (msg.window_index, msg.start_position,
                                msg.actual_size)
            self._try_correct(node)
        elif isinstance(msg, ResendRequest):
            # The root detected a gap in the bootstrap forwarding.
            if self._bootstrapping:
                self._forwarded = min(self._forwarded,
                                      msg.from_position)
                self._forward_bootstrap(node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"Deco_sync local got {type(msg).__name__}")

    def _try_calculate(self, node: RuntimeNode) -> None:
        """Algorithm 2: emit partial + buffer once enough events exist."""
        if self._assignment is None:
            return
        window, start, layout = self._assignment
        if self.available < start + layout.total:
            return
        self._assignment = None
        slice_end = start + layout.slice_size
        buffer_events = self.buffer.get_range(
            slice_end, slice_end + layout.buffer_size)
        first_ts = (self.buffer.get_range(start, start + 1).first_ts
                    if layout.total else -1)

        def send(partial: Any) -> None:
            self._send_report(node, LocalWindowReport(
                sender=node.name, window_index=window, epoch=0,
                partial=partial, slice_count=layout.slice_size,
                event_rate=self.take_rate(), buffer=buffer_events,
                spec_start=start, slice_start=start, first_ts=first_ts))
            # Now blocked until the next assignment (or a correction).

        self.aggregate_then(node, start, slice_end, send)

    def _try_correct(self, node: RuntimeNode) -> None:
        """Correction step: recompute with the actual window size."""
        if self._correction is None:
            return
        window, start, actual = self._correction
        if self.available < start + actual:
            return  # predicted far too small; wait for the events
        self._correction = None
        end = start + actual
        # Recomputing the window span is real work the local repeats.
        self.ctx.result.recomputed_events += actual
        last_event = (self.buffer.get_range(end - 1, end) if actual > 0
                      else self.buffer.get_range(end, end))

        def send(partial: Any) -> None:
            self._send_report(node, CorrectionReport(
                sender=node.name, window_index=window, epoch=0,
                partial=partial, count=actual, last_event=last_event))

        self.aggregate_then(node, start, end, send)


class DecoSyncRoot(RootBehaviorBase):
    """Root of Deco_sync: bootstrap, predict, verify, correct."""

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.raw = self.new_raw_buffers()
        self.reports = ReportCollector(self.n_nodes)
        self.corrections = ReportCollector(self.n_nodes)
        predictor_cls = PREDICTORS[ctx.query.predictor]
        self.predictors = [
            predictor_cls(m=ctx.query.delta_m,
                          min_delta=ctx.query.min_delta)
            for _ in range(self.n_nodes)]
        #: Prediction sent per window: {a: (start, predicted, delta)}.
        self.assigned: dict[int, dict[int, tuple[int, int, int]]] = {}
        self._correcting: int | None = None
        #: Once predictions start, late bootstrap raw events are merely
        #: discarded (cheap), not aggregated.
        self._bootstrap_done = False
        #: Failure model: re-broadcast hook while awaiting reports.
        self._timeout: "Timeout | None" = None
        self._rebroadcast: Callable[[], None] | None = None
        self._timeout_node: RuntimeNode | None = None

    # -- failure model ----------------------------------------------------------

    def _arm_timeout(self, node: RuntimeNode,
                     rebroadcast: Callable[[], None]) -> None:
        """Await reports; re-broadcast the last down-flow on timeout
        ("when the root does not receive messages from one of the local
        nodes... the root node then starts the correction step" — here
        realized as a retransmission, which also covers dropped
        down-flows)."""
        if self.ctx.retransmit_timeout_s is None:
            # Reliable fabric: nothing will ever fire the hook, and
            # holding it would make this behaviour reference itself
            # (the closure captures ``self``).
            return
        self._rebroadcast = rebroadcast
        self._timeout_node = node
        if self._timeout is None:
            from repro.runtime.node import Timeout
            self._timeout = Timeout(node, self._fire_timeout)
        self._timeout.arm(self.ctx.retransmit_timeout_s)

    def _cancel_timeout(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()

    def _fire_timeout(self) -> None:
        if self._rebroadcast is not None:
            self.result.retransmissions += 1
            tracer = self.ctx.tracer
            if tracer.enabled:
                node = self._timeout_node
                tracer.event(ev.MSG_RETRANSMIT, node.now, node.name,
                             reason="timeout", msg="down_flow")
                tracer.inc("retransmissions", node.name)
            self._rebroadcast()
            if self._timeout is not None:
                self._timeout.arm(self.ctx.retransmit_timeout_s)

    # -- dispatch ------------------------------------------------------------

    def service_time(self, node: RuntimeNode, msg: Message) -> float:
        if isinstance(msg, RawEvents) and self._bootstrap_done:
            # Stale bootstrap forwardings after the switch to
            # decentralized mode: dequeue and drop, no aggregation.
            return (node.profile.message_overhead_s
                    + 0.05 * len(msg.events)
                    * node.profile.per_event_process_s())
        return super().service_time(node, msg)

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, RawEvents):
            if self._bootstrap_done:
                return  # late bootstrap forwardings; dropped
            a = self.node_index(msg.sender)
            if not self.ingest_positioned_raw(node, msg, self.raw[a]):
                return
            node.account_events(len(msg.events))
            self._try_emit_bootstrap(node)
        elif isinstance(msg, LocalWindowReport):
            self.reports.add(msg.window_index,
                             self.node_index(msg.sender), msg)
            self._try_verify(node)
        elif isinstance(msg, CorrectionReport):
            self.corrections.add(msg.window_index,
                                 self.node_index(msg.sender), msg)
            self._try_finish_correction(node)
        else:  # pragma: no cover - defensive
            raise TypeError(f"Deco_sync root got {type(msg).__name__}")

    # -- bootstrap -----------------------------------------------------------

    def _try_emit_bootstrap(self, node: RuntimeNode) -> None:
        while (self.next_emit < min(BOOTSTRAP_WINDOWS,
                                    self.ctx.n_windows)):
            g = self.next_emit
            spans = self.actual_spans(g)
            if not all(self.raw[a].end >= end
                       for a, (_, end) in spans.items()):
                return
            partial = self.fn.identity()
            for a, (start, end) in spans.items():
                partial = self.fn.combine(
                    partial, self.raw[a].lift_range(start, end))
                self.predictors[a].observe(end - start)
            last = g == BOOTSTRAP_WINDOWS - 1 or \
                g == self.ctx.n_windows - 1
            self.emit(node, g, self.fn.lower(partial), spans,
                      up_flows=1, down_flows=0,
                      after=(lambda: self._send_prediction(node))
                      if last else None)

    # -- prediction step ---------------------------------------------------------

    def _send_prediction(self, node: RuntimeNode) -> None:
        """Algorithm 1: assign predicted sizes + deltas for next_emit."""
        g = self.next_emit
        self._bootstrap_done = True
        if g >= self.ctx.n_windows:
            return
        assignment: dict[int, tuple[int, int, int]] = {}
        watermark = self.watermark.current
        for a in range(self.n_nodes):
            predicted, delta = self.predictors[a].predict()
            start = int(self.workload.bounds[g, a])
            assignment[a] = (start, predicted, delta)
        self.assigned[g] = assignment
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, node.now, node.name,
                         transition="predict", window=g)

        def broadcast() -> None:
            self.broadcast(node, lambda a: WindowAssignment(
                sender="root", window_index=g, epoch=0,
                predicted_size=assignment[a][1],
                delta=assignment[a][2],
                start_position=assignment[a][0],
                release_before=assignment[a][0], watermark=watermark))

        broadcast()
        self._arm_timeout(node, broadcast)

    # -- verification step ----------------------------------------------------------

    def _try_verify(self, node: RuntimeNode) -> None:
        """Algorithm 3: verify Eq. 5-6, emit or start the correction."""
        g = self.next_emit
        if (g >= self.ctx.n_windows or self._correcting is not None
                or not self.reports.complete(g)):
            return
        self._cancel_timeout()
        reports = self.reports.pop(g)
        assignment = self.assigned.pop(g)
        ok = all(
            sync_prediction_ok(self.workload.actual_size(g, a),
                               assignment[a][1], assignment[a][2])
            for a in range(self.n_nodes))
        if not ok:
            self.result.prediction_errors += 1
            tracer = self.ctx.tracer
            if tracer.enabled:
                tracer.event(ev.STATE, node.now, node.name,
                             transition="verify_failed", window=g)
            self._start_correction(node, g)
            return
        partial = self.fn.identity()
        for a in sorted(reports):
            report = reports[a]
            start, _, _ = assignment[a]
            slice_end = start + report.slice_count
            _, actual_end = self.workload.span(g, a)
            partial = self.fn.combine(partial, report.partial)
            needed = report.buffer.take(actual_end - slice_end)
            if len(needed):
                partial = self.fn.combine(partial, self.fn.lift(needed))
            self.predictors[a].observe(actual_end - start)
        self.emit(node, g, self.fn.lower(partial), self.actual_spans(g),
                  up_flows=1, down_flows=1,
                  after=lambda: self._send_prediction(node))

    # -- correction step -------------------------------------------------------------

    def _start_correction(self, node: RuntimeNode, window: int) -> None:
        """Send actual sizes; await corrected partials (Section 4.3.1)."""
        self._correcting = window
        spans = self.actual_spans(window)
        watermark = self.watermark.current
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, node.now, node.name,
                         transition="correction_start", window=window)
            tracer.inc("corrections", node.name)

        def broadcast() -> None:
            self.broadcast(node, lambda a: CorrectionRequest(
                sender="root", window_index=window, epoch=0,
                actual_size=spans[a][1] - spans[a][0],
                start_position=spans[a][0], watermark=watermark))

        broadcast()
        self._arm_timeout(node, broadcast)

    def _try_finish_correction(self, node: RuntimeNode) -> None:
        g = self._correcting
        if g is None or not self.corrections.complete(g):
            return
        self._cancel_timeout()
        self._correcting = None
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, node.now, node.name,
                         transition="correction_done", window=g)
        reports = self.corrections.pop(g)
        partial = self.fn.combine_all(
            r.partial for _, r in sorted(reports.items()))
        for a in range(self.n_nodes):
            self.predictors[a].observe(self.workload.actual_size(g, a))
        self.emit(node, g, self.fn.lower(partial), self.actual_spans(g),
                  corrected=True, up_flows=2, down_flows=2,
                  after=lambda: self._send_prediction(node))
