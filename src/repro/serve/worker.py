"""Serve worker: one real node process of the cluster.

A worker owns exactly one node's *state* — its behaviour instance, its
CPU-queue arithmetic (:class:`ServeNode`, a
:class:`~repro.runtime.node.RuntimeNode` driver), and its source feeder
— while the coordinator owns the shared virtual clock and the fabric.
The coordinator tells the worker *what runs* (one EPOCH frame of
scheduled callback tokens and delivered wire frames, in canonical
order), the worker executes it against real behaviour code, and
replies with the ordered scheduling side effects of each item
(:mod:`repro.serve.protocol` ops).  The coordinator merges every
worker's batches back into canonical global order — the order the
simulator would have made the same calls inline — so the global
schedule is bit-identical to the oracle's.

Run as a module::

    python -m repro.serve.worker --host H --port P --node local-0 \
        --config '<json>'

Environment: ``REPRO_WORKLOAD_CACHE`` is honoured exactly as in the
simulator (workers inherit the harness's environment).
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import socket
import sys
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
from repro.serve.protocol import (OP_CANCEL, OP_OUTCOME, OP_SCHEDULE,
                                  OP_SEND, OP_STOP, config_from_json,
                                  counters_snapshot, outcome_to_json,
                                  sender_table)
from repro.wire.codec import MessageCodec

if TYPE_CHECKING:
    from repro.core.multiquery import MultiQueryEngine
    from repro.streams.batch import EventBatch


class _ServeTimer:
    """Worker-side handle mirroring a kernel :class:`ScheduledEvent`."""

    __slots__ = ("token", "cancelled", "_rt")

    def __init__(self, token: int, rt: "WorkerRuntime") -> None:
        self.token = token
        self.cancelled = False
        self._rt = rt

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._rt.cancel_timer(self.token)


class ServeNode(RuntimeNode):
    """The serve driver of :class:`~repro.runtime.node.RuntimeNode`.

    The clock is the coordinator's virtual time (delivered with every
    dispatch); timers and transmissions become protocol ops instead of
    direct kernel/fabric calls.  All CPU-queue arithmetic is the
    inherited driver-agnostic code, so timing cannot drift from the
    simulator's.
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
        self.codec = MessageCodec(spec.fmt)
        self.codec.seed_senders(sender_table(ctx.workload.n_nodes))
        self.now = 0.0
        self._next_token = 0
        self._timers: dict[int, tuple[Any, _ServeTimer]] = {}
        # Per-dispatch op buffer (reset by dispatch()).
        self.ops: list[list[Any]] = []
        self.opblob = bytearray()
        #: Set by :meth:`ServeNode.request_stop`; an epoch dispatch
        #: halts after the item that raised it (mirroring the kernel,
        #: which stops after the stopping callback returns).
        self.stop_requested = False
        # Epoch-execution state (active only inside dispatch_epoch):
        # the horizon, the local heap of sub-horizon timers created
        # during the epoch, and the tokens cancelled mid-epoch (so a
        # shipped-but-unreached slot is skipped symmetrically with the
        # coordinator's merge).
        self._epoch_h: float | None = None
        self._epoch_heap: list[tuple[float, int, tuple[str, ...],
                                     int, int]] = []
        self._epoch_counter = 0
        self._epoch_cancelled: set[int] = set()
        #: The standing-query engine, fed through :meth:`append`.
        self.engine: MultiQueryEngine | None = None
        #: Engine appends of the latest frame's items, not yet known
        #: to be applied: ``(item ordinal, stream, events)``.
        self._held: list[tuple[int, str, EventBatch]] = []
        self._item = 0
        if ctx.engine is not None:
            self._own_engine(ctx.engine)
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

    # -- op emission (called from ServeNode) -------------------------------

    def add_timer(self, time: float, callback: Any, phase: int,
                  rank: tuple[str, ...]) -> _ServeTimer:
        token = self._next_token
        self._next_token += 1
        handle = _ServeTimer(token, self)
        self._timers[token] = (callback, handle)
        self.ops.append([OP_SCHEDULE, time, phase, list(rank), token])
        if self.tracer.enabled:
            self._causal(TIMER_SCHED, token=token, at=time)
        if self._epoch_h is not None and time < self._epoch_h:
            # Sub-horizon timer created mid-epoch: it fires locally in
            # this same epoch (the coordinator tracks it from the
            # schedule op and never enters it into the kernel).
            heapq.heappush(self._epoch_heap,
                           (time, phase, rank, self._epoch_counter,
                            token))
            self._epoch_counter += 1
        return handle

    def cancel_timer(self, token: int) -> None:
        self._timers.pop(token, None)
        self.ops.append([OP_CANCEL, token])
        if self._epoch_h is not None:
            self._epoch_cancelled.add(token)

    def transmit(self, dst: str, msg: Any) -> None:
        frame = self.codec.encode_message(msg)
        offset = len(self.opblob)
        self.opblob += frame
        self.ops.append([OP_SEND, dst, offset, len(frame)])

    # -- standing-query feed (called from behaviours) ----------------------

    def _own_engine(self, engine: MultiQueryEngine) -> None:
        """Keep ``engine`` here and stand in for it on the context:
        ``append`` is all a behaviour calls on ``ctx.engine``."""
        self.engine = engine
        self.ctx.engine = cast("MultiQueryEngine", self)

    def append(self, stream: str, events: EventBatch) -> None:
        """Hold one ingest-path engine append until its item applies.

        A worker executes its whole epoch optimistically, and after a
        mid-epoch stop the merge discards its later items; the engine
        is a pure observer, so feeding it late is safe.  The next frame
        says how much was applied (:meth:`_release`), which cuts the
        FINAL accounts exactly where the simulator stopped.
        """
        self._held.append((self._item, stream, events))

    def _release(self, applied: int | None = None) -> None:
        """Feed the engine the held appends of applied items: all of
        them, unless FINISH names how many items the merge applied."""
        engine = self.engine
        if engine is None:  # nothing is held before an engine exists
            return
        held, self._held = self._held, []
        for item, stream, events in held:
            if applied is None or item < applied:
                engine.append(stream, events)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, kind: int, header: dict[str, Any]
                 ) -> tuple[list[list[Any]], bytes]:
        """Execute one control instruction (INJECT/START/QUERY);
        returns (ops, blob)."""
        self._release()
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
        elif kind == framing.QUERY:
            self._apply_query_op(header)
        else:
            raise ServeError(f"unexpected control frame kind {kind}")
        self._emit_outcomes(before, ("rpc",), -1)
        return self.ops, bytes(self.opblob)

    def _emit_outcomes(self, before: int, ref: Sequence[Any],
                       epoch: int) -> None:
        """Close one executed item: its window emissions become ops.

        Detected by result delta: behaviours append outcomes to the
        shared result record exactly as on the simulator, so no scheme
        code needs serve-specific hooks.
        """
        emitted = self.ctx.result.outcomes[before:]
        for outcome in emitted:
            self.ops.append([OP_OUTCOME, outcome_to_json(outcome)])
        if self.tracer.enabled:
            self._causal(OP_EMIT, ref=":".join(map(str, ref)),
                         epoch=epoch, windows=",".join(
                             str(o.index) for o in emitted))

    def _apply_query_op(self, header: dict[str, Any]) -> None:
        """Admit or remove a standing query on this worker's engine.

        The coordinator broadcasts QUERY frames to every worker with an
        explicit query id, so all registries agree; each replica
        registers the query, but only the stream's owner ever feeds its
        engine and only the owner ships the account in FINAL.
        """
        from repro.core.multiquery import MultiQueryEngine
        engine = self.engine
        if engine is None:
            engine = MultiQueryEngine(tracer=self.tracer)
            self._own_engine(engine)
        qop = header.get("qop")
        if qop == "admit":
            engine.admit(header["stream"], header["spec"],
                         at=header.get("at"), qid=header.get("qid"))
        elif qop == "remove":
            engine.remove(header["qid"])
        else:
            raise ServeError(f"unknown query op {qop!r}")

    # -- epoch dispatch ----------------------------------------------------

    def _run_timer(self, token: int) -> None:
        """Fire one owned timer (kernel consumed-timer semantics)."""
        try:
            callback, handle = self._timers.pop(token)
        except KeyError:
            raise ServeError(
                f"unknown or consumed timer token {token} on "
                f"{self.node_name}") from None
        # The kernel marks an executing event cancelled so a late
        # cancel() is a no-op; mirror that on the worker handle.
        handle.cancelled = True
        if self.tracer.enabled:
            self._causal(TIMER_FIRE, token=token)
        callback()

    def dispatch_epoch(self, header: dict[str, Any],
                       blob: bytes) -> tuple[list[dict[str, Any]],
                                             bytes]:
        """Execute one whole epoch locally; returns (batches, blob).

        The coordinator ships every pre-epoch event below the horizon
        as a *slot* (a delivery or a timer fire) in kernel pop order,
        already sorted by the canonical ``(time, phase, rank)`` key.
        Timers this worker creates *during* the epoch below the horizon
        fire here too; they merge into the slot sequence by the same
        key, shipped slots winning ties (pre-epoch kernel sequence
        numbers are smaller than any assigned mid-epoch).  Each
        executed item becomes one op batch tagged with its origin
        (``["slot", i]`` or ``["timer", token]``) plus a running
        counter snapshot, so the coordinator can replay the merged op
        stream in canonical global order and cut each worker exactly at
        its last applied item.
        """
        self._release()
        slots = header["slots"]
        self._epoch_idx = header.get("e", -1)
        if self.tracer.enabled and "f" in header:
            self._causal(FRAME_RECV, fseq=header["f"],
                         edge=COORD_PROCESS, fkind=framing.EPOCH)
        self._epoch_h = header["h"]
        self._epoch_heap = []
        self._epoch_counter = 0
        self._epoch_cancelled = set()
        self.stop_requested = False
        self.opblob = bytearray()
        batches: list[dict[str, Any]] = []
        idx = 0
        try:
            while idx < len(slots) or self._epoch_heap:
                self._item = len(batches)
                use_slot = idx < len(slots)
                if use_slot and self._epoch_heap:
                    slot = slots[idx]
                    ht, hph, hrk, _hc, _htok = self._epoch_heap[0]
                    use_slot = ((slot[1], slot[2], tuple(slot[3]), 0)
                                <= (ht, hph, hrk, 1))
                if use_slot:
                    slot = slots[idx]
                    ref: list[Any] = ["slot", idx]
                    idx += 1
                    verb, at = slot[0], slot[1]
                    if verb == "run" and slot[4] in \
                            self._epoch_cancelled:
                        continue
                    self.ops = []
                    self.now = at
                    before = len(self.ctx.result.outcomes)
                    if verb == "run":
                        self._run_timer(slot[4])
                    elif verb == "deliver":
                        off, length = slot[4], slot[5]
                        self.node.deliver(self.codec.decode_message(
                            bytes(blob[off:off + length])))
                    else:
                        raise ServeError(
                            f"unknown epoch slot verb {verb!r}")
                else:
                    at, _ph, _rk, _cnt, token = heapq.heappop(
                        self._epoch_heap)
                    if token in self._epoch_cancelled:
                        continue
                    ref = ["timer", token]
                    self.ops = []
                    self.now = at
                    before = len(self.ctx.result.outcomes)
                    self._run_timer(token)
                self._emit_outcomes(before, ref, self._epoch_idx)
                batches.append({
                    "ref": ref, "ops": self.ops,
                    "c": counters_snapshot(
                        self.ctx.result, self.node.metrics.busy_s)})
                if self.stop_requested:
                    # Kernel semantics: stop() halts the loop after
                    # the stopping callback returns; later events (and
                    # their side effects) never run.  The coordinator
                    # cuts every worker at the stop batch the same way.
                    break
        finally:
            self._epoch_h = None
            self._epoch_heap = []
            self._epoch_cancelled = set()
        return batches, bytes(self.opblob)

    def handle(self, kind: int, header: dict[str, Any], blob: bytes
               ) -> tuple[int, dict[str, Any], bytes]:
        """One request frame in, its reply frame out: the whole
        request -> reply mapping, shared by the socket loop and the
        model checker's in-process transport."""
        if kind == framing.FINISH:
            return (framing.FINAL,
                    self.final_payload(header["applied"]), b"")
        if kind == framing.EPOCH:
            batches, rblob = self.dispatch_epoch(header, blob)
            rkind = framing.EPOCH_OPS
            reply: dict[str, Any] = {"batches": batches}
        else:
            ops, rblob = self.dispatch(kind, header)
            rkind = framing.OPS
            reply = {"ops": ops,
                     "c": counters_snapshot(self.ctx.result,
                                            self.node.metrics.busy_s)}
        if self.tracer.enabled:
            self._frame_seq += 1
            reply["f"] = self._frame_seq
            self._causal(FRAME_SEND, fseq=self._frame_seq,
                         dst=COORD_PROCESS, fkind=rkind)
        return rkind, reply, rblob

    def final_payload(self, applied: int) -> dict[str, Any]:
        """The FINAL frame header: standing-query accounts and trace
        (results and counters travel with every applied batch).

        ``applied`` is how many items of this worker's last epoch the
        coordinator's merge applied (FINISH carries it).
        """
        self._release(applied)
        payload: dict[str, Any] = {
            "node": self.node_name,
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
    """The worker request loop: dispatch until FINISH."""
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="one node process of a repro serve cluster")
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--node", required=True,
                        help="node identity (root or local-<i>)")
    parser.add_argument("--config", required=True,
                        help="RunConfig as JSON (see serve.protocol)")
    args = parser.parse_args(argv)
    config = config_from_json(json.loads(args.config))
    rt = WorkerRuntime(args.node, config)
    with framing.connect_with_retry(args.host, args.port) as sock:
        serve_forever(sock, rt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
