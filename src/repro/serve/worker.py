"""Serve worker: one real node process of the cluster.

A worker owns exactly one node's *state* — its behaviour instance, its
CPU-queue arithmetic (:class:`ServeNode`, a
:class:`~repro.runtime.node.RuntimeNode` driver), its source feeder and
every timer the node schedules, kept in one persistent local heap
keyed ``(time, phase, rank, seq)`` — while the coordinator owns the
shared virtual clock and the fabric.  The coordinator tells the worker
how far it may run (one EPOCH frame: the horizon plus the deliveries
below it, in canonical order); the worker runs its deliveries and its
own timers below the horizon in one merged order, and replies with the
cross-node effects (:mod:`repro.serve.protocol` ops) of each item that
had any, plus the time of its next pending timer.  The coordinator
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
import heapq
import math
import socket
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, cast

from repro.core.runner import RunConfig, make_context
from repro.core.workload import Workload
from repro.errors import ServeError, SimulationError
from repro.obs.events import (COORD_PROCESS, FRAME_RECV, FRAME_SEND,
                              OP_EMIT, TIMER_FIRE, TIMER_SCHED)
from repro.obs.tracer import NULL_TRACER
from repro.runtime.api import (PHASE_PROTOCOL, ROOT_NAME, TimerHandle,
                               local_index, local_name)
from repro.runtime.driver import resolved_profiles
from repro.runtime.feeder import inject_stream
from repro.runtime.node import Behavior, NodeProfile, RuntimeNode
from repro.serve import framing
from repro.serve.merge import MergeKey, key_from_json, slot_key, timer_key
from repro.serve.protocol import (OP_OUTCOME, OP_SEND, OP_STOP,
                                  counters_snapshot, outcome_to_json,
                                  sender_table)
from repro.wire.codec import MessageCodec

if TYPE_CHECKING:
    from repro.core.multiquery import MultiQueryEngine
    from repro.streams.batch import EventBatch


class _ServeTimer:
    """Worker-side handle mirroring a kernel :class:`ScheduledEvent`:
    cancelling is lazy, the heap entry is dropped when it surfaces."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Any) -> None:
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: One heap entry: ``(time, phase, rank, seq, handle)``; ``seq`` is
#: unique, so handles are never compared.
_Entry = tuple[float, int, tuple[str, ...], int, _ServeTimer]


class ServeNode(RuntimeNode):
    """The serve driver of :class:`~repro.runtime.node.RuntimeNode`.

    The clock is the coordinator's virtual time (each executed item's
    own time); timers go to the worker's heap and transmissions become
    protocol ops instead of direct fabric calls.  All CPU-queue
    arithmetic is the inherited driver-agnostic code, so timing cannot
    drift from the simulator's.
    """

    def __init__(self, name: str, profile: NodeProfile,
                 behavior: Behavior | None,
                 rt: "WorkerRuntime") -> None:
        super().__init__(name, profile, behavior)
        self._rt = rt

    @property
    def now(self) -> float:
        return self._rt.now

    @property
    def tracer(self) -> Any:
        return self._rt.tracer

    def schedule_at(self, time: float, callback: Any,
                    phase: int = PHASE_PROTOCOL,
                    rank: tuple[str, ...] = ()) -> TimerHandle:
        # Mirror the kernel's validation so a bad schedule fails with
        # the same error on either driver.
        if time < self._rt.now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._rt.now}")
        if not math.isfinite(time):
            raise SimulationError(f"non-finite schedule time {time}")
        return self._rt.add_timer(time, callback, phase, rank)

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
                 workload: Workload | None = None) -> None:
        self.node_name = node_name
        self.config = config
        spec, ctx, tracer = make_context(config, workload)
        self.ctx = ctx
        self.tracer = tracer if tracer is not None else NULL_TRACER
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
        self.node = ServeNode(node_name, profile, behaviors[node_name],
                              self)
        senders = sender_table(ctx.workload.n_nodes)
        #: This node's place in the sender table: the first half of
        #: its timers' merge tie-break.
        self.order = senders.index(node_name)
        self.codec = MessageCodec(spec.fmt)
        self.codec.seed_senders(senders)
        self.now = 0.0
        #: The node's only timer store, with lazy cancel.  Restricted to
        #: one node, the kernel's global sequence is program order, so
        #: ``seq`` reproduces the simulator's order of this node's
        #: timers (salt 0).
        self._heap: list[_Entry] = []
        self._next_seq = 0
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
        # Causal instrumentation (active only when tracing): own
        # program order, outgoing frame numbering, and the epoch round
        # ordinal the coordinator stamps on each EPOCH frame.
        self._causal_seq = 0
        self._frame_seq = 0
        self._epoch_idx = -1

    def _causal(self, kind: str, **data: Any) -> None:
        """Record one causal event (see :mod:`repro.obs.events`):
        ``seq`` carries this process's program order."""
        if not self.tracer.enabled:
            return
        self._causal_seq += 1
        self.tracer.event(kind, self.now, self.node_name,
                          seq=self._causal_seq, **data)

    # -- timers and ops (called from ServeNode) ----------------------------

    def add_timer(self, time: float, callback: Any, phase: int,
                  rank: tuple[str, ...]) -> _ServeTimer:
        seq = self._next_seq
        self._next_seq += 1
        handle = _ServeTimer(callback)
        heapq.heappush(self._heap, (time, phase, rank, seq, handle))
        if self.tracer.enabled:
            self._causal(TIMER_SCHED, token=seq, at=time)
        return handle

    def _head(self) -> _Entry | None:
        """The earliest live timer entry (cancelled heads dropped)."""
        heap = self._heap
        while heap and heap[0][4].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def next_timer(self) -> float | None:
        """When this node's next live timer is due (None: none is)."""
        head = self._head()
        return None if head is None else head[0]

    def live_timers(self) -> list[tuple[float, int, tuple[str, ...],
                                        int]]:
        """Every live timer as ``(time, phase, rank, seq)``, unordered."""
        return [entry[:4] for entry in self._heap
                if not entry[4].cancelled]

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

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, kind: int, header: dict[str, Any]
                 ) -> tuple[list[list[Any]], bytes]:
        """Execute one control instruction (INJECT/START);
        returns (ops, blob).  A control dispatch is always applied in
        full, so it ends with a fresh stop-cut base."""
        self._open_frame()
        self.ops = []
        self.opblob = bytearray()
        self.now = header.get("now", self.now)
        if self.tracer.enabled and "f" in header:
            self._causal(FRAME_RECV, fseq=header["f"],
                         edge=COORD_PROCESS, fkind=kind)
        before = len(self.ctx.result.outcomes)
        if kind == framing.START:
            self.node.start()
        elif kind == framing.INJECT:
            if self.local_index < 0:
                raise ServeError("INJECT sent to the root node")
            stream = self.ctx.workload.streams[self.local_index]
            inject_stream(self.node, stream,
                          self.config.resolved_batch_size(),
                          self.config.saturated,
                          sender=f"source-{self.local_index}",
                          sources=self.config.sources_per_node)
        else:
            raise ServeError(f"unexpected control frame kind {kind}")
        self._emit_outcomes(before, ("rpc",), -1)
        self._open_frame()
        return self.ops, bytes(self.opblob)

    def _emit_outcomes(self, before: int, ref: Sequence[Any],
                       epoch: int) -> None:
        """Close one executed item: its window emissions become ops.

        Detected by result delta: behaviours append outcomes to the
        shared result record exactly as on the simulator, so no scheme
        code needs serve-specific hooks.  Only an item that ships a
        batch is recorded as emitted.
        """
        emitted = self.ctx.result.outcomes[before:]
        for outcome in emitted:
            self.ops.append([OP_OUTCOME, outcome_to_json(outcome)])
        if self.tracer.enabled and self.ops:
            self._causal(OP_EMIT, ref=":".join(map(str, ref)),
                         epoch=epoch, windows=",".join(
                             str(o.index) for o in emitted))

    # -- epoch dispatch ----------------------------------------------------

    def dispatch_epoch(self, header: dict[str, Any],
                       blob: bytes | bytearray
                       ) -> tuple[list[dict[str, Any]], bytes]:
        """Execute one whole epoch locally; returns (batches, blob).

        The coordinator ships every delivery below the horizon ``h`` as
        a slot ``[time, phase, rank, pos, offset, length]`` in kernel
        pop order (``pos`` is the global pop position, the wire frame
        is ``blob[offset:offset+length]``).  They merge with this
        node's own timers below ``h`` by ``(time, phase, rank)``: only
        the fabric schedules ``PHASE_DELIVER`` events, so a delivery
        never ties a timer.  Each executed item with cross-node effects
        becomes one batch: its ref (``["slot", i]`` or ``["timer",
        seq]``, a timer adding ``"k": [time, phase, rank]``) and its
        ordered ops.  An item with only node-local effects ships
        nothing.
        """
        self._open_frame()
        slots = header["slots"]
        horizon = header["h"]
        # Slots come in kernel pop order, so the last is the latest.
        if slots and not slots[-1][0] < horizon:
            raise ServeError(
                f"delivery at {slots[-1][0]} shipped past the epoch "
                f"horizon {horizon}")
        self._epoch_idx = header.get("e", -1)
        if self.tracer.enabled and "f" in header:
            self._causal(FRAME_RECV, fseq=header["f"],
                         edge=COORD_PROCESS, fkind=framing.EPOCH)
        self.stop_requested = False
        self.opblob = bytearray()
        result = self.ctx.result
        slot_keys = [slot_key(at, phase, tuple(rank), pos)
                     for at, phase, rank, pos, _, _ in slots]
        batches: list[dict[str, Any]] = []
        idx = 0
        while not self.stop_requested:
            entry = self._head()
            if entry is not None and not entry[0] < horizon:
                entry = None
            handle: _ServeTimer | None = None
            if idx < len(slots) and (
                    entry is None or slot_keys[idx][:3] <= entry[:3]):
                at, phase, rank, _, off, length = slots[idx]
                ref: list[Any] = ["slot", idx]
                key = slot_keys[idx]
                idx += 1
            elif entry is not None:
                heapq.heappop(self._heap)
                at, phase, rank, seq, handle = entry
                ref = ["timer", seq]
                key = timer_key(at, phase, rank, self.order, seq)
            else:
                break
            self.ops = []
            self.now = at
            before = len(result.outcomes)
            if handle is None:
                self.node.deliver(self.codec.decode_message(
                    bytes(blob[off:off + length])))
            else:
                # Consumed, as the kernel marks an executing event: a
                # late cancel() is a no-op.
                handle.cancelled = True
                if self.tracer.enabled:
                    self._causal(TIMER_FIRE, token=seq)
                handle.callback()
            self._emit_outcomes(before, ref, self._epoch_idx)
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
        else:
            ops, rblob = self.dispatch(kind, header)
            rkind = framing.OPS
            reply = {"ops": ops}
        reply["n"] = self.next_timer()
        if self.tracer.enabled:
            self._frame_seq += 1
            reply["f"] = self._frame_seq
            self._causal(FRAME_SEND, fseq=self._frame_seq,
                         dst=COORD_PROCESS, fkind=rkind)
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
               config: RunConfig) -> None:
    """One worker's whole life: build node ``node``, connect to the
    coordinator at ``host:port`` and serve until FINISH."""
    rt = WorkerRuntime(node, config)
    with framing.connect_with_retry(host, port) as sock:
        serve_forever(sock, rt)
