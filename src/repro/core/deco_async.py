"""Deco_async: the asynchronous prediction scheme (Section 4.2.3).

Local nodes never block.  Each speculative local window is split into a
front buffer (``Delta`` raw events), a slice (``l-hat - 2 * Delta``
events, aggregated), and an end buffer (``Delta`` raw events,
Eq. 9-10); the node ships all three in one up-flow and immediately
starts the next window with the same parameters, adopting fresh
``(l-hat, Delta)`` whenever a root assignment arrives.

The root stores every received front/end buffer in a per-node
:class:`~repro.core.segments.SegmentStore` — the *previous* and
*current root buffers* of Algorithm 5.  A window whose actual end
overruns its end buffer is completed by the *next* speculative window's
front buffer once that report arrives; a window whose actual end lies
inside the next window's *slice* is unrecoverable from raw events and
triggers the correction step.  Verification is Eq. 14-15 realized as
per-node containment checks (the root has per-node actual sizes,
Section 4.3.2).

On a misprediction the root bumps the *epoch*: speculative reports at
or after the failed window are discarded, local nodes roll back to the
failed window's actual boundary, recompute, and resume once fresh
parameters arrive — "once the prediction is wrong, Deco_async has to
recalculate all windows after the wrong one, which affects throughput
significantly" (Section 5.2).

"The first three global windows are processed similarly to Deco_sync":
windows 0-1 bootstrap centrally, window 2 runs one prediction ->
calculation -> verification round, and every correction is the
Section 4.3 round.  None of that is restated here — it is inherited
from :class:`~repro.core.deco_sync.PredictingLocal` and
:class:`~repro.core.deco_sync.PredictingRoot`, the classes Deco_sync
itself extends.  This module holds what Section 4.2.3 adds: Algorithm 4
(:meth:`DecoAsyncLocal._speculate`), Algorithm 5
(:meth:`DecoAsyncRoot._verify_async` and its assignments), and the
epoch bump with its rollback.
"""

from __future__ import annotations

from repro.core.context import SchemeContext
from repro.core.deco_sync import (BOOTSTRAP_WINDOWS, PredictingLocal,
                                  PredictingRoot)
from repro.core.protocol import (CorrectionRequest, FrontBuffer,
                                 LocalWindowReport, Message,
                                 WindowAssignment)
from repro.core.segments import SegmentStore
from repro.core.slicing import AsyncLayout, async_layout
from repro.core.verification import (AsyncGlobalCheck,
                                     async_global_check)
from repro.obs import events as ev
from repro.runtime.api import ROOT_NAME
from repro.runtime.node import RuntimeNode

#: Windows 0..SYNC_WINDOW-1 bootstrap centrally; window SYNC_WINDOW is
#: handled sync-style; speculation starts after it.
SYNC_WINDOW = BOOTSTRAP_WINDOWS  # window index 2

#: How many windows a local node may speculate beyond the newest root
#: assignment it has adopted.  Local nodes have bounded memory (they
#: "can store a window of up to 1 million events", Section 3) and must
#: retain unverified events for potential rollback, so speculation depth
#: is capped; it also bounds how stale the reused (l-hat, Delta) can get.
MAX_SPECULATION_AHEAD = 4


class DecoAsyncLocal(PredictingLocal):
    """Local node of Deco_async: speculate, never block."""

    #: Windows 0-2 are coordinated centrally.
    INITIAL_WINDOWS = SYNC_WINDOW + 1

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        #: Parameters adopted from the root: (valid-from-window, l-hat,
        #: delta); None right after a rollback (the correction step's
        #: fresh assignment restarts speculation).
        self._params: tuple[int, int, int] | None = None
        #: Next speculative window index and its start position.
        #: Speculation begins after the sync-style window, once the
        #: root's first async assignment provides its verified start.
        self._next_window = SYNC_WINDOW + 1
        self._position = -1
        #: Whether the current speculative window's front buffer has
        #: already been shipped, and the layout frozen for that window.
        self._fb_sent = False
        self._window_layout: AsyncLayout | None = None

    def on_events(self, node: RuntimeNode) -> None:
        super().on_events(node)
        self._speculate(node)

    # -- control -------------------------------------------------------------------

    def handle_control(self, node: RuntimeNode, msg: Message) -> None:
        if (isinstance(msg, WindowAssignment)
                and msg.window_index > SYNC_WINDOW):
            if msg.epoch < self.epoch:
                return  # stale pre-rollback assignment
            self.apply_watermark(msg.watermark)
            if msg.release_before >= 0:
                self.buffer.release_before(msg.release_before)
            # Speculative parameters for windows >= msg.window_index.
            if (self._params is None
                    or msg.window_index > self._params[0]):
                self._params = (msg.window_index, msg.predicted_size,
                                msg.delta)
            if msg.start_position >= 0 and \
                    msg.window_index == self._next_window:
                self._position = msg.start_position
            self._speculate(node)
            return
        if isinstance(msg, CorrectionRequest):
            # Roll back: discard local speculation state, and resume
            # from the failed window's actual boundary once fresh
            # parameters arrive (the correction step's follow-up
            # assignment).  The shared round recomputes the window.
            self._params = None
            self._position = msg.start_position + msg.actual_size
            self._next_window = msg.window_index + 1
            self._fb_sent = False
            self._window_layout = None
            tracer = self.ctx.tracer
            if tracer.enabled:
                tracer.event(ev.STATE, node.now, node.name,
                             transition="rollback",
                             window=msg.window_index, epoch=msg.epoch)
                tracer.inc("rollbacks", node.name)
        super().handle_control(node, msg)

    # -- speculation (Algorithm 4) ----------------------------------------------------

    def _speculate(self, node: RuntimeNode) -> None:
        if (self._params is None or self._position < 0
                or self._correction is not None
                or self._assignment is not None):
            return
        while True:
            params_window, predicted, delta = self._params
            if self._next_window > params_window + MAX_SPECULATION_AHEAD:
                return  # bounded memory: wait for fresher assignments
            # Freeze the layout when the window starts: adopting new
            # parameters between the front buffer and the report would
            # tear a hole in the window's raw coverage.
            if self._window_layout is None:
                self._window_layout = async_layout(predicted, delta)
            layout = self._window_layout
            if layout.total == 0:
                self._window_layout = None
                return
            start = self._position
            fb_end = start + layout.fbuffer_size
            # Ship the front buffer the moment it fills: it may complete
            # the previous window's tail at the root.
            if not self._fb_sent and layout.fbuffer_size > 0:
                if self.available < fb_end:
                    return
                self.send_up(node, FrontBuffer(
                    sender=node.name, window_index=self._next_window,
                    epoch=self.epoch, spec_start=start,
                    events=self.buffer.get_range(start, fb_end)))
                self._fb_sent = True
            if self.available < start + layout.total:
                return
            slice_end = fb_end + layout.slice_size
            cover_end = start + layout.total
            partial = self.lift_range(fb_end, slice_end)
            self.send_up(node, LocalWindowReport(
                sender=node.name, window_index=self._next_window,
                epoch=self.epoch, partial=partial,
                slice_count=layout.slice_size,
                event_rate=self.take_rate(),
                ebuffer=self.buffer.get_range(slice_end, cover_end),
                spec_start=start, slice_start=fb_end))
            self._position = cover_end
            self._next_window += 1
            self._fb_sent = False
            self._window_layout = None


class DecoAsyncRoot(PredictingRoot):
    """Root of Deco_async: verify speculative windows, roll back on
    mispredictions (Algorithm 5)."""

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        #: Per-node raw coverage (the previous + current root buffers).
        self.stores: dict[int, SegmentStore] = {}
        #: Highest window whose front buffer arrived, per node.
        self._fb_seen: dict[int, int] = {}
        #: The last Eq. 14-15 global check, for inspection/tests.
        self.last_global_check: AsyncGlobalCheck | None = None

    # -- dispatch -------------------------------------------------------------

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if isinstance(msg, FrontBuffer):
            if msg.epoch < self.epoch:
                return
            a = self.node_index(msg.sender)
            self.stores[a].insert(msg.spec_start, msg.events)
            self._fb_seen[a] = max(self._fb_seen.get(a, -1),
                                   msg.window_index)
            self._try_verify(node)
            return
        if (isinstance(msg, LocalWindowReport)
                and msg.epoch >= self.epoch
                and msg.window_index > SYNC_WINDOW
                and msg.ebuffer is not None and len(msg.ebuffer)):
            # End-buffer events are usable the moment they arrive,
            # whatever window they were speculated for.
            self.stores[self.node_index(msg.sender)].insert(
                msg.slice_start + msg.slice_count, msg.ebuffer)
        super().handle(node, msg)

    def _try_verify(self, node: RuntimeNode) -> None:
        """Windows up to ``SYNC_WINDOW`` are verified the shared way
        (Algorithm 3), every later one by Algorithm 5."""
        if self.next_emit <= SYNC_WINDOW:
            super()._try_verify(node)
        while (self._correcting is None
               and SYNC_WINDOW < self.next_emit < self.ctx.n_windows
               and self.reports.complete(self.next_emit)):
            if not self._verify_async(node):
                return

    # -- speculative verification (Algorithm 5) --------------------------------------

    def _send_prediction(self, node: RuntimeNode) -> None:
        """The sync-style window is assigned the shared way
        (Algorithm 1).  A window after it that follows a shared round
        — the sync-style window or a correction — (re)starts
        speculation at the boundary that round verified."""
        if self.next_emit <= SYNC_WINDOW:
            super()._send_prediction(node)
        else:
            self._send_async_assignment(node, restart=True)

    def _send_async_assignment(self, node: RuntimeNode,
                               restart: bool = False) -> None:
        g = self.next_emit
        if g >= self.ctx.n_windows:
            return
        if restart:
            # Locals resume from the actual boundary; no carried raw.
            self._fb_seen = {}
            for a in range(self.n_nodes):
                self.stores[a] = SegmentStore(
                    base=int(self.workload.bounds[g, a]))
        watermark = self.watermark.current
        params = [self.predictors[a].predict()
                  for a in range(self.n_nodes)]
        release = [int(self.stores[a].base)
                   for a in range(self.n_nodes)]
        self._trace_state(node, "predict", g)
        # A speculating local keeps its own position (-1); one that
        # restarts is told the verified boundary.
        self.broadcast(node, lambda a: WindowAssignment(
            sender=ROOT_NAME, window_index=g, epoch=self.epoch,
            predicted_size=params[a][0], delta=params[a][1],
            start_position=release[a] if restart else -1,
            release_before=release[a], watermark=watermark))

    def _verify_async(self, node: RuntimeNode) -> bool:
        """Verify window ``next_emit``.

        Returns False when verification must wait for more reports (the
        window's tail may live in the next window's front buffer, which
        has not arrived yet).  Emits or starts a correction otherwise.
        """
        g = self.next_emit
        reports = self.reports.get(g)
        ok = True
        must_wait = False
        root_slice = prev_buf = cur_buf = 0
        for a in range(self.n_nodes):
            report = reports[a]
            slice_start = report.slice_start
            slice_end = slice_start + report.slice_count
            cover_end = slice_end + len(report.ebuffer or ())
            s_a, e_a = self.workload.span(g, a)
            root_slice += report.slice_count
            prev_buf += slice_start - self.stores[a].base
            cur_buf += len(report.ebuffer or ())
            if s_a > slice_start or slice_end > e_a:
                ok = False  # the slice leaks outside the actual window
                continue
            if e_a > cover_end:
                # The actual end overruns the end buffer: the missing
                # events sit at the front of the next speculative window.
                # Its front buffer (shipped eagerly) absorbs the overrun
                # — that is what the front buffer is for; only if the
                # overrun reaches into the next window's *slice* is the
                # prediction unrecoverable (Eq. 15 violation).
                if self.stores[a].covers(cover_end, e_a):
                    continue
                next_arrived = (self._fb_seen.get(a, -1) > g
                                or a in self.reports.get(g + 1))
                if next_arrived:
                    ok = False  # overran past the next front buffer
                else:
                    must_wait = True
        self.last_global_check = async_global_check(
            self.ctx.window_size, root_slice, prev_buf, cur_buf)
        if ok and must_wait:
            return False
        if not ok:
            self.result.prediction_errors += 1
            self._trace_state(node, "verify_failed", g)
            self._start_correction(node, g)
            return True
        partial = self.fn.identity()
        for a in sorted(reports):
            report = reports[a]
            slice_start = report.slice_start
            slice_end = slice_start + report.slice_count
            s_a, e_a = self.workload.span(g, a)
            head = self.stores[a].get_range(s_a, slice_start)
            if len(head):
                partial = self.fn.combine(partial, self.fn.lift(head))
            partial = self.fn.combine(partial, report.partial)
            tail = self.stores[a].get_range(slice_end, e_a)
            if len(tail):
                partial = self.fn.combine(partial, self.fn.lift(tail))
            self.stores[a].release_before(e_a)
            self.predictors[a].observe(e_a - s_a)
        self.reports.pop(g)
        self.emit(node, g, self.fn.lower(partial), self.actual_spans(g),
                  up_flows=1, down_flows=1,
                  after=lambda: self._send_async_assignment(node))
        return True

    # -- correction (Section 4.3.2) -----------------------------------------------------

    def _start_correction(self, node: RuntimeNode, window: int) -> None:
        """A misprediction invalidates every speculative report at or
        after the failed window: bump the epoch so stragglers are
        filtered, then run the shared correction round."""
        self.epoch += 1
        self.reports.drop_at_or_after(window)
        super()._start_correction(node, window)
