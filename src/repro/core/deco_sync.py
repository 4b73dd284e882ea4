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

Deco_async is this scheme plus speculation ("the first three global
windows are processed similarly to Deco_sync", Section 4.2.3), so the
rounds above are written once, in :class:`PredictingLocal` and
:class:`PredictingRoot`, and both schemes extend them.  The schemes
differ in three places, one overridable member each:

* ``epoch`` -- the epoch every message carries.  Nothing here bumps it,
  so in Deco_sync it stays 0 and the ``msg.epoch < self.epoch`` filters
  are vacuous; Deco_async's root bumps it on every misprediction.
* :meth:`PredictingLocal.aggregate_slice` -- how a slice is aggregated.
* :meth:`PredictingLocal.send_report` -- what "send a report and wait"
  means; its root-side counterpart is the ``_arm_timeout`` /
  ``_cancel_timeout`` pair around every down-flow.

:class:`DecoSyncLocal` and :class:`DecoSyncRoot` add what only
Deco_sync has: the blocking slice burst and the failure model of
Section 4.3.4 (timeouts, retransmissions).
"""

from __future__ import annotations


from collections.abc import Callable
from typing import Any

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
from repro.runtime.api import ROOT_NAME
from repro.runtime.node import RuntimeNode, Timeout

#: Number of bootstrap windows collected centrally.
BOOTSTRAP_WINDOWS = 2


class PredictingLocal(LocalBehaviorBase):
    """The local-node rounds Deco_sync and Deco_async share.

    Raw forwarding of the bootstrap windows with ``ResendRequest`` gap
    repair, Algorithm 2 (slice + buffer for one assigned window) and the
    recompute half of the correction step (Section 4.3).
    """

    #: Global windows the forwarding-phase memory budget covers.
    INITIAL_WINDOWS = BOOTSTRAP_WINDOWS

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._forwarded = 0
        self._bootstrapping = True
        #: The epoch this node's reports carry: the newest one a
        #: correction request announced.
        self.epoch = 0
        #: Pending assignment: (window, start, layout) or None.
        self._assignment: tuple[int, int, SyncLayout] | None = None
        #: Pending correction: (window, start, actual_size) or None.
        self._correction: tuple[int, int, int] | None = None

    # -- the points where the schemes differ -----------------------------------

    def aggregate_slice(self, node: RuntimeNode, start: int, end: int,
                        then: Callable[[Any], None]) -> None:
        """Aggregate the slice ``[start, end)`` and call
        ``then(partial)``.

        A node that aggregates eagerly as events arrive
        (``INGEST_PROCESS_FACTOR = 1.0``) has already paid for the
        slice: the partial is lifted inline.
        """
        then(self.lift_range(start, end))

    def send_report(self, node: RuntimeNode, msg: Message) -> None:
        """Send an up-flow the root will answer.  On a reliable fabric
        that is all there is to it."""
        self.send_up(node, msg)

    # -- event arrival ---------------------------------------------------------

    def retention_budget(self) -> int:
        if self._bootstrapping:
            # Forwarding phase: hold just enough for the centrally
            # coordinated windows + slack.
            return self.bootstrap_budget(self.INITIAL_WINDOWS)
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

    # -- control -------------------------------------------------------------------

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, WindowAssignment):
            if msg.epoch < self.epoch:
                return  # stale pre-rollback assignment
            self._bootstrapping = False
            self._assignment = (
                msg.window_index, msg.start_position,
                sync_layout(msg.predicted_size, msg.delta))
            if msg.release_before >= 0:
                self.buffer.release_before(msg.release_before)
            self.apply_watermark(msg.watermark)
            self._try_calculate(node)
        elif isinstance(msg, CorrectionRequest):
            self.epoch = msg.epoch
            self._assignment = None  # the prediction was wrong
            self._correction = (msg.window_index, msg.start_position,
                                msg.actual_size)
            self.apply_watermark(msg.watermark)
            self._try_correct(node)
        elif isinstance(msg, ResendRequest):
            # The root detected a gap in the bootstrap forwarding.
            if self._bootstrapping:
                self._forwarded = min(self._forwarded,
                                      msg.from_position)
                self._forward_bootstrap(node)
        else:  # pragma: no cover - defensive
            raise TypeError(
                f"{type(self).__name__} got {type(msg).__name__}")

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
            self.send_report(node, LocalWindowReport(
                sender=node.name, window_index=window, epoch=self.epoch,
                partial=partial, slice_count=layout.slice_size,
                event_rate=self.take_rate(), buffer=buffer_events,
                spec_start=start, slice_start=start, first_ts=first_ts))

        self.aggregate_slice(node, start, slice_end, send)

    def _try_correct(self, node: RuntimeNode) -> None:
        """Correction step: recompute with the actual window size."""
        if self._correction is None:
            return
        window, start, actual = self._correction
        if self.available < start + actual:
            return  # predicted far too small; wait for the events
        self._correction = None
        end = start + actual
        self.ctx.result.recomputed_events += actual
        last_event = (self.buffer.get_range(end - 1, end) if actual > 0
                      else self.buffer.get_range(end, end))
        epoch = self.epoch

        def send(partial: Any) -> None:
            self.send_report(node, CorrectionReport(
                sender=node.name, window_index=window, epoch=epoch,
                partial=partial, count=actual, last_event=last_event))

        # Recomputing the window span is real (wasted) work the local
        # repeats, whichever way it aggregates its slices.
        self.aggregate_then(node, start, end, send)


class PredictingRoot(RootBehaviorBase):
    """The root rounds Deco_sync and Deco_async share.

    Central aggregation of the bootstrap windows, predictor set-up,
    Algorithm 1 (assignment), Algorithm 3 (Eq. 5-6 verification) and
    the request -> recompute -> report -> combine correction round of
    Section 4.3.
    """

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
        #: The epoch down-flows carry; up-flows from an older one are
        #: dropped.
        self.epoch = 0
        #: Prediction sent per window: {a: (start, predicted, delta)}.
        self.assigned: dict[int, dict[int, tuple[int, int, int]]] = {}
        self._correcting: int | None = None

    # -- "send a down-flow and wait" ---------------------------------------------

    def _arm_timeout(self, node: RuntimeNode,
                     rebroadcast: Callable[[], None]) -> None:
        """A down-flow went out and its reports are awaited.  On a
        reliable fabric they arrive: nothing to arm."""

    def _cancel_timeout(self) -> None:
        """The awaited reports are all in."""

    # -- dispatch ------------------------------------------------------------

    def _trace_state(self, node: RuntimeNode, transition: str,
                     window: int) -> None:
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, node.now, node.name,
                         transition=transition, window=window,
                         epoch=self.epoch)

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, RawEvents):
            if self.raw_closed:
                return  # late bootstrap forwardings; dropped
            a = self.node_index(msg.sender)
            if not self.ingest_positioned_raw(node, msg, self.raw[a]):
                return
            node.account_events(len(msg.events))
            self._try_emit_bootstrap(node)
        elif isinstance(msg, LocalWindowReport):
            if msg.epoch < self.epoch:
                return  # speculative report from before a rollback
            self.reports.add(msg.window_index,
                             self.node_index(msg.sender), msg)
            self._try_verify(node)
        elif isinstance(msg, CorrectionReport):
            if msg.epoch < self.epoch:
                return
            self.corrections.add(msg.window_index,
                                 self.node_index(msg.sender), msg)
            self._try_finish_correction(node)
        else:  # pragma: no cover - defensive
            raise TypeError(
                f"{type(self).__name__} got {type(msg).__name__}")

    # -- bootstrap -----------------------------------------------------------

    def _try_emit_bootstrap(self, node: RuntimeNode) -> None:
        n_bootstrap = min(BOOTSTRAP_WINDOWS, self.ctx.n_windows)
        while self.next_emit < n_bootstrap:
            g = self.next_emit
            aggregated = self.aggregate_raw_window(g)
            if aggregated is None:
                return
            spans, partial = aggregated
            for a, (start, end) in spans.items():
                self.predictors[a].observe(end - start)
            self.emit(node, g, self.fn.lower(partial), spans,
                      up_flows=1, down_flows=0,
                      after=(lambda: self._send_prediction(node))
                      if g == n_bootstrap - 1 else None)

    # -- prediction step ---------------------------------------------------------

    def _send_prediction(self, node: RuntimeNode) -> None:
        """Algorithm 1: assign predicted sizes + deltas for next_emit."""
        g = self.next_emit
        # Once predictions start, late bootstrap raw events are merely
        # discarded (cheap), not aggregated.
        self.raw_closed = True
        if g >= self.ctx.n_windows:
            return
        assignment: dict[int, tuple[int, int, int]] = {}
        watermark = self.watermark.current
        for a in range(self.n_nodes):
            predicted, delta = self.predictors[a].predict()
            start = int(self.workload.bounds[g, a])
            assignment[a] = (start, predicted, delta)
        self.assigned[g] = assignment
        self._trace_state(node, "predict", g)

        def broadcast() -> None:
            self.broadcast(node, lambda a: WindowAssignment(
                sender=ROOT_NAME, window_index=g, epoch=self.epoch,
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
            self._trace_state(node, "verify_failed", g)
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
        self._trace_state(node, "correction_start", window)
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.inc("corrections", node.name)

        def broadcast() -> None:
            self.broadcast(node, lambda a: CorrectionRequest(
                sender=ROOT_NAME, window_index=window, epoch=self.epoch,
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
        self._trace_state(node, "correction_done", g)
        partial = self.combine_reports(self.corrections.pop(g))
        for a in range(self.n_nodes):
            self.predictors[a].observe(self.workload.actual_size(g, a))
        self.emit(node, g, self.fn.lower(partial), self.actual_spans(g),
                  corrected=True, up_flows=2, down_flows=2,
                  after=lambda: self._send_prediction(node))


class DecoSyncLocal(PredictingLocal):
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
        #: Failure model (Section 4.3.4): the last up-flow sent, kept
        #: for timeout-driven retransmission.
        self._last_sent: Message | None = None
        self._timeout: Timeout | None = None

    def aggregate_slice(self, node: RuntimeNode, start: int, end: int,
                        then: Callable[[Any], None]) -> None:
        # Only buffered on arrival: the aggregation is paid now, as a
        # burst, and the node stays blocked until the next assignment
        # (or a correction) once the report is out.
        self.aggregate_then(node, start, end, then)

    # -- failure model ---------------------------------------------------------

    def _arm_timeout(self, node: RuntimeNode) -> None:
        if self.ctx.retransmit_timeout_s is None:
            return
        if self._timeout is None:
            self._timeout = Timeout(node,
                                    lambda: self._retransmit(node))
        self._timeout.arm(self.ctx.retransmit_timeout_s)

    def _cancel_timeout(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()

    def _retransmit(self, node: RuntimeNode,
                    reason: str = "timeout") -> None:
        """No answer from the root: re-send the last report (the root
        may have missed it, or its reply may have been dropped)."""
        if self._last_sent is None:
            return
        self.ctx.result.retransmissions += 1
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.event(ev.MSG_RETRANSMIT, node.now, node.name,
                         reason=reason, **trace_fields(self._last_sent))
            tracer.inc("retransmissions", node.name)
        self.send_up(node, self._last_sent)
        self._arm_timeout(node)

    def send_report(self, node: RuntimeNode, msg: Message) -> None:
        self._last_sent = msg
        self.send_up(node, msg)
        self._arm_timeout(node)

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, (WindowAssignment, CorrectionRequest)):
            # The root answered: the report it answers got through.
            self._cancel_timeout()
            if (isinstance(msg, WindowAssignment)
                    and self._last_sent is not None
                    and self._assignment is None
                    and self._correction is None
                    and msg.window_index
                    == getattr(self._last_sent, "window_index", -2)):
                # Duplicate assignment for a window we already reported:
                # the root missed our report (failure model) — resend.
                self._retransmit(node, reason="duplicate_assignment")
                return
        super().handle_control(node, msg)


class DecoSyncRoot(PredictingRoot):
    """Root of Deco_sync: the shared rounds under Section 4.3.4's
    timeouts."""

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        #: Failure model: re-broadcast hook while awaiting reports.
        self._timeout: Timeout | None = None
        self._rebroadcast: Callable[[], None] | None = None
        self._timeout_node: RuntimeNode | None = None

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
