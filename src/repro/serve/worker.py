"""Serve worker: one real node process of the cluster.

A worker owns exactly one node's *state* — its behaviour instance, its
CPU-queue arithmetic (:class:`ServeNode`, a
:class:`~repro.runtime.node.RuntimeNode` on the worker's own
:class:`~repro.sim.kernel.Simulator`), its source feeder and every
timer the node schedules, all on that one-node kernel — while the
coordinator owns the shared virtual clock and the fabric.  The
coordinator tells the worker how far it may run (one EPOCH frame: the
horizon plus the deliveries below it, in canonical order); the worker
runs its deliveries and its own timers below the horizon in one merged
order, and replies with the cross-node effects
(:mod:`repro.serve.protocol` ops) of each item that had any, plus the
time of its next pending timer.  The coordinator
merges every worker's batches back into canonical global order, so
fabric reservations are made in the order the simulator makes them.

A worker is a child the harness forks from the calling process
(:func:`repro.serve.harness.run_scheme_served`); the child's whole life
is :func:`run_worker`.  It inherits the harness's imports, environment
and process-wide workload cache, so ``REPRO_WORKLOAD_CACHE`` is
honoured exactly as in the simulator.
"""

from __future__ import annotations

import bisect
import socket
from typing import TYPE_CHECKING, Any, cast

from repro.core.runner import RunConfig, make_context
from repro.core.workload import Workload
from repro.errors import ServeError
from repro.obs.tracer import NULL_TRACER, RunTracer
from repro.runtime.api import ROOT_NAME, local_index, local_name
from repro.runtime.driver import resolved_profiles
from repro.runtime.feeder import inject_stream
from repro.runtime.node import Behavior, NodeProfile, RuntimeNode
from repro.serve import framing
from repro.serve.merge import MergeKey, key_from_json, slot_key, timer_key
from repro.serve.protocol import (OP_OUTCOME, OP_SEND, OP_STOP,
                                  counters_snapshot, outcome_to_json,
                                  sender_table)
from repro.sim.kernel import Simulator
from repro.wire.codec import MessageCodec

if TYPE_CHECKING:
    from repro.core.multiquery import MultiQueryEngine
    from repro.streams.batch import EventBatch


class ServeNode(RuntimeNode):
    """A :class:`~repro.runtime.node.RuntimeNode` on its worker's
    one-node kernel.

    Clock, timers and tracer are the simulator's own; only the two
    cross-node effects differ: a transmission becomes a ``send`` op and
    the stop a ``stop`` op, which the coordinator applies.
    """

    def __init__(self, sim: Simulator, name: str, profile: NodeProfile,
                 behavior: Behavior | None,
                 rt: "WorkerRuntime") -> None:
        super().__init__(sim, name, profile, behavior)
        self._rt = rt

    def request_stop(self) -> None:
        self._rt.ops.append([OP_STOP])
        self._rt.stop_requested = True

    def _transmit(self, dst: str, msg: Any) -> None:
        self._rt.transmit(dst, msg)


class WorkerRuntime:
    """One worker's protocol state machine (transport-independent).

    Separated from the socket loop so tests can drive dispatches
    directly and assert on the emitted ops.
    """

    def __init__(self, node_name: str, config: RunConfig,
                 workload: Workload | None = None,
                 traced: bool = False) -> None:
        self.node_name = node_name
        self.config = config
        spec, ctx = make_context(config, workload,
                                 RunTracer() if traced else None)
        self.ctx = ctx
        self.tracer = ctx.tracer
        root_profile, local_profile = resolved_profiles(config, spec)
        # Construct every behaviour in the simulator's order (root,
        # then locals): constructors may touch shared context state,
        # and each worker's context replica must see the exact same
        # construction effects as the oracle's single shared context.
        behaviors: dict[str, Behavior] = {ROOT_NAME: spec.root_cls(ctx)}
        for i in range(ctx.workload.n_nodes):
            behaviors[local_name(i)] = spec.local_cls(i, ctx)
        if node_name not in behaviors:
            raise ServeError(
                f"unknown node {node_name!r} for a "
                f"{ctx.workload.n_nodes}-node cluster")
        self.local_index = (-1 if node_name == ROOT_NAME
                            else local_index(node_name))
        profile = (root_profile if node_name == ROOT_NAME
                   else local_profile)
        #: The node's only timer store and clock.  Salt 0 whatever the
        #: config's: restricted to one node, the kernel's sequence is
        #: program order, which reproduces the simulator's order of
        #: this node's timers.
        self.sim = Simulator()
        self.sim.tracer = self.tracer
        self.node = ServeNode(self.sim, node_name, profile,
                              behaviors[node_name], self)
        senders = sender_table(ctx.workload.n_nodes)
        #: This node's place in the sender table: the first half of
        #: its timers' merge tie-break.
        self.order = senders.index(node_name)
        self.codec = MessageCodec(spec.fmt)
        self.codec.seed_senders(senders)
        # Per-item op buffer (reset for every executed item).
        self.ops: list[list[Any]] = []
        self.opblob = bytearray()
        #: Set by :meth:`ServeNode.request_stop`; an epoch dispatch
        #: halts after the item that raised it (mirroring the kernel,
        #: which stops after the stopping callback returns).
        self.stop_requested = False
        #: The standing-query engine, fed through :meth:`append`.
        self.engine: MultiQueryEngine | None = None
        # The stop cut (see final_payload): engine appends not yet
        # known to be applied, as ``(item ordinal, stream, events)``;
        # the canonical key of each item of the latest epoch; and the
        # counter vector after each of its items (index 0: before the
        # first).
        self._held: list[tuple[int, str, EventBatch]] = []
        self._item_keys: list[MergeKey] = []
        self._item_counters: list[list[Any]] = []
        self._open_frame()
        if ctx.engine is not None:
            # Keep the engine here and stand in for it on the context:
            # ``append`` is all a behaviour calls on ``ctx.engine``.
            self.engine = ctx.engine
            ctx.engine = cast("MultiQueryEngine", self)

    # -- ops (called from ServeNode) --------------------------------------

    def transmit(self, dst: str, msg: Any) -> None:
        frame = self.codec.encode_message(msg)
        offset = len(self.opblob)
        self.opblob += frame
        self.ops.append([OP_SEND, dst, offset, len(frame)])

    # -- standing-query feed (called from behaviours) ----------------------

    def append(self, stream: str, events: EventBatch) -> None:
        """Hold one ingest-path engine append until its item applies.

        A worker executes its whole epoch optimistically, and after a
        mid-epoch stop the merge discards its later items; the engine
        is a pure observer, so feeding it late is safe.  The next frame
        implies everything so far applied (:meth:`_open_frame`); FINISH
        names the stop key, which cuts the FINAL accounts exactly where
        the simulator stopped.
        """
        self._held.append((len(self._item_keys), stream, events))

    def _release(self, applied: int | None = None) -> None:
        """Feed the engine the held appends of applied items: all of
        them, or those of the first ``applied`` items."""
        engine = self.engine
        if engine is None:  # nothing is held before an engine exists
            return
        held, self._held = self._held, []
        for item, stream, events in held:
            if applied is None or item < applied:
                engine.append(stream, events)

    def _counters(self) -> list[Any]:
        return counters_snapshot(self.ctx.result, self.node.metrics.busy_s)

    def _open_frame(self) -> None:
        """Everything executed so far is applied: feed the held appends
        and restart the stop-cut bookkeeping from the current state."""
        self._release()
        self._item_keys = []
        self._item_counters = [self._counters()]

    # -- start -------------------------------------------------------------

    def start(self) -> tuple[list[list[Any]], bytes]:
        """Execute START; returns (ops, blob).

        A local first feeds itself its source stream, then every node
        runs its start hook, the simulator's per-node order.  START is
        always applied in full, so it ends with a fresh stop-cut base.
        """
        self._open_frame()
        self.ops = []
        self.opblob = bytearray()
        before = len(self.ctx.result.outcomes)
        if self.local_index >= 0:
            inject_stream(self.node,
                          self.ctx.workload.streams[self.local_index],
                          self.config.resolved_batch_size(),
                          self.config.saturated,
                          sender=f"source-{self.local_index}",
                          sources=self.config.sources_per_node)
        self.node.start()
        self._emit_outcomes(before)
        self._open_frame()
        return self.ops, bytes(self.opblob)

    def _emit_outcomes(self, before: int) -> None:
        """Close one executed item: its window emissions become ops.

        Detected by result delta: behaviours append outcomes to the
        shared result record exactly as on the simulator, so no scheme
        code needs serve-specific hooks.
        """
        for outcome in self.ctx.result.outcomes[before:]:
            self.ops.append([OP_OUTCOME, outcome_to_json(outcome)])

    # -- epoch dispatch ----------------------------------------------------

    def dispatch_epoch(self, header: dict[str, Any],
                       blob: bytes | bytearray
                       ) -> tuple[list[dict[str, Any]], bytes]:
        """Execute one whole epoch locally; returns (batches, blob).

        The coordinator ships every delivery below the horizon ``h`` as
        a slot ``[time, phase, rank, pos, offset, length]`` in kernel
        pop order (``pos`` is the global pop position, the wire frame
        is ``blob[offset:offset+length]``).  They merge with the
        timers on this node's kernel below ``h`` by ``(time, phase,
        rank)``: only the fabric schedules ``PHASE_DELIVER`` events, so
        a delivery never ties a timer.  Each executed item with
        cross-node effects becomes one batch: its ref (``["slot", i]``
        or ``["timer", seq]``, ``seq`` the kernel's, a timer adding
        ``"k": [time, phase, rank]``) and its ordered ops.  An item
        with only node-local effects ships nothing.
        """
        self._open_frame()
        slots = header["slots"]
        horizon = header["h"]
        # Slots come in kernel pop order, so the last is the latest.
        if slots and not slots[-1][0] < horizon:
            raise ServeError(
                f"delivery at {slots[-1][0]} shipped past the epoch "
                f"horizon {horizon}")
        self.stop_requested = False
        self.opblob = bytearray()
        result = self.ctx.result
        sim = self.sim
        slot_keys = [slot_key(at, phase, tuple(rank), pos)
                     for at, phase, rank, pos, _, _ in slots]
        batches: list[dict[str, Any]] = []
        idx = 0
        while not self.stop_requested:
            event = sim.peek()
            if event is not None and not event.time < horizon:
                event = None
            head = (None if event is None
                    else (event.time, event.phase, event.rank))
            if idx < len(slots) and (
                    head is None or slot_keys[idx][:3] <= head):
                at, phase, rank, _, off, length = slots[idx]
                ref: list[Any] = ["slot", idx]
                key = slot_keys[idx]
                idx += 1
            elif event is not None:
                at, phase, rank = event.time, event.phase, event.rank
                ref = ["timer", event.seq]
                key = timer_key(at, phase, rank, self.order, event.seq)
            else:
                break
            self.ops = []
            before = len(result.outcomes)
            if ref[0] == "slot":
                # The clock steps to the delivery, as the coordinator's
                # kernel stood when it popped it.
                sim._now = at
                self.node.deliver(self.codec.decode_message(
                    bytes(blob[off:off + length])))
            else:
                sim.run(max_events=1)
            self._emit_outcomes(before)
            self._item_keys.append(key)
            self._item_counters.append(self._counters())
            if self.ops:
                batch = {"ref": ref, "ops": self.ops}
                if ref[0] == "timer":
                    batch["k"] = [at, phase, rank]
                batches.append(batch)
        return batches, bytes(self.opblob)

    def handle(self, kind: int, header: dict[str, Any],
               blob: bytes | bytearray
               ) -> tuple[int, dict[str, Any], bytes]:
        """One request frame in, its reply frame out: the whole
        request -> reply mapping, shared by the socket loop and the
        model checker's in-process transport.  Every op reply carries
        ``"n"``, the time of this node's next pending timer."""
        if kind == framing.FINISH:
            stop = header.get("stop")
            return (framing.FINAL, self.final_payload(
                None if stop is None else key_from_json(stop)), b"")
        if kind == framing.EPOCH:
            batches, rblob = self.dispatch_epoch(header, blob)
            rkind = framing.EPOCH_OPS
            reply: dict[str, Any] = {"batches": batches}
        elif kind == framing.START:
            ops, rblob = self.start()
            rkind = framing.OPS
            reply = {"ops": ops}
        else:
            raise ServeError(f"unexpected control frame kind {kind}")
        event = self.sim.peek()
        reply["n"] = None if event is None else event.time
        return rkind, reply, rblob

    def final_payload(self, stop: MergeKey | None) -> dict[str, Any]:
        """The FINAL frame header: counters, standing-query accounts
        and trace, all cut at the run's stop.

        ``stop`` is the canonical key of the batch whose stop op the
        coordinator applied (None: the run ended without one).  Every
        earlier epoch applied in full, so only the latest epoch's items
        are cut: those keyed at or below ``stop`` applied, the rest ran
        past the stop and are discarded.
        """
        keys = self._item_keys
        applied = (len(keys) if stop is None
                   else bisect.bisect_right(keys, stop))
        self._release(applied)
        payload: dict[str, Any] = {
            "node": self.node_name,
            "c": self._item_counters[applied],
            "trace": None,
        }
        engine = self.engine
        if engine is not None:
            # Ship only the accounts whose stream this worker owns:
            # replicas on other workers were registered (construction
            # parity) but never fed.
            payload["queries"] = {
                qid: acct for qid, acct in engine.accounts_json().items()
                if acct["stream"] == self.node_name}
        if self.tracer is not NULL_TRACER:
            payload["trace"] = {
                "events": [[e.kind, e.time, e.node, e.dur, e.data]
                           for e in self.tracer.events],
                "counters": [[name, scope, value]
                             for (name, scope), value
                             in self.tracer.counters.items()],
                "gauges": [[name, scope, last, high]
                           for (name, scope), (last, high)
                           in self.tracer.gauges.items()],
            }
        return payload


def serve_forever(sock: socket.socket, rt: WorkerRuntime) -> None:
    """The worker request loop: dispatch until FINISH.

    Every read carries :data:`framing.REPLY_TIMEOUT_S`, the same
    deadline the coordinator holds its workers to, so a coordinator
    that goes silent fails the worker with a :class:`ServeError`
    instead of hanging it.
    """
    sock.settimeout(framing.REPLY_TIMEOUT_S)
    framing.send_frame(sock, framing.HELLO, {"node": rt.node_name})
    kind, _, _ = framing.recv_frame(sock)
    if kind != framing.ACK:
        raise ServeError(f"expected ACK from coordinator, got {kind}")
    while True:
        kind, header, blob = framing.recv_frame(sock)
        try:
            reply = rt.handle(kind, header, blob)
        except Exception as exc:  # surface worker bugs to the harness
            framing.send_frame(sock, framing.ERROR, {
                "node": rt.node_name, "error": f"{type(exc).__name__}: "
                f"{exc}"})
            raise
        framing.send_frame(sock, *reply)
        if kind == framing.FINISH:
            return


def run_worker(host: str, port: int, node: str,
               config: RunConfig, traced: bool) -> None:
    """One worker's whole life: build node ``node`` (recording a trace
    when ``traced``), connect to the coordinator at ``host:port`` and
    serve until FINISH."""
    rt = WorkerRuntime(node, config, traced=traced)
    with framing.connect_with_retry(host, port) as sock:
        serve_forever(sock, rt)
