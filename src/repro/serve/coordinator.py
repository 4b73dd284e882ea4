"""Serve coordinator: the shared virtual clock and fabric over TCP.

The coordinator owns exactly what the simulator driver owns — the
event kernel, the :class:`~repro.sim.network.Network` with its links
and NIC reservations, and the run loop — but every node is a
:class:`ProxyNode`: delivering to it (or firing a timer a worker
scheduled) is forwarded to the real node process, whose reply is the
ordered op list to apply back onto the kernel.

One run loop, conservative parallel execution (DESIGN §12).  Timers
are strictly worker-local and only sends cross nodes, so every kernel
event below the safe horizon ``t0 + min-link-latency`` is independent
across workers: any send one of them emits arrives at or after the
horizon.  Each round the coordinator pops the head event and that
whole prefix, ships each worker its share as ONE batched EPOCH frame,
reads the replies once every frame is written (the workers are
separate processes, so they execute concurrently), then replays the
returned op batches in canonical ``(time, phase, rank)`` order.
Results are fingerprint-identical to the oracle (emission order within an
equal-key class is covered by the same invariance contract as the
tie-break salt).  A fabric whose minimum link latency is zero has no
lookahead: the horizon is the head event's own time and every round
is that one event — the kernel then assigns the same sequence numbers
to the same schedules as the in-process oracle by construction.

Pacing: a *paced* run (``config.saturated=False``) throttles the event
loop to the virtual clock (one virtual second per wall second), so
per-window wall latencies measure a real load test.  A *saturated* run
lets virtual time free-run and measures sustained pipeline throughput.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from dataclasses import replace
from typing import Any, Protocol

from repro.core.context import SchemeContext
from repro.core.protocol import make_sizer
from repro.core.records import WindowOutcome
from repro.core.runner import RunConfig, make_context
from repro.errors import ServeError
from repro.obs.events import (COORD_PROCESS, FRAME_RECV, FRAME_SEND,
                              OP_APPLY)
from repro.obs.tracer import RunTracer
from repro.runtime.api import ROOT_NAME, local_name
from repro.runtime.driver import (resolved_profiles, simulation_cap_s,
                                  stamp_run_meta)
from repro.runtime.node import Behavior, NodeProfile
from repro.serve import framing
from repro.serve.merge import EpochMerge, MergeKey, slot_key
from repro.serve.protocol import (OP_CANCEL, OP_OUTCOME, OP_SCHEDULE,
                                  OP_SEND, OP_STOP, ZERO_COUNTERS,
                                  outcome_from_json, sender_table)
from repro.sim.kernel import Simulator
from repro.sim.node import SimNode
from repro.sim.topology import StarTopology, build_star, peer_mesh
from repro.wire.codec import MessageCodec

#: Seconds to wait for every worker process to connect and HELLO.
HANDSHAKE_TIMEOUT_S = 30.0
#: Seconds an accepted connection has to say HELLO (a worker sends it
#: at once; this bounds what a silent stranger costs the accept loop).
HELLO_TIMEOUT_S = 2.0
#: Seconds a connected worker has to move one frame: one that is alive
#: but never replies fails the run instead of hanging it.
REPLY_TIMEOUT_S = 120.0


class Transport(Protocol):
    """The coordinator's whole view of its workers: two calls."""

    def send(self, name: str, kind: int, header: dict[str, Any],
             blob: bytes) -> None: ...

    def recv(self, name: str) -> tuple[int, dict[str, Any], bytes]: ...


class SocketTransport:
    """The production transport: each node's accepted blocking socket,
    framed by the same two functions the workers use."""

    def __init__(self) -> None:
        self.socks: dict[str, socket.socket] = {}

    def adopt(self, conn: socket.socket, names: list[str]) -> None:
        """HELLO/ACK one freshly accepted connection, or close it."""
        conn.settimeout(HELLO_TIMEOUT_S)
        try:
            kind, header, _ = framing.recv_frame(conn)
            name = header.get("node")
            # A second HELLO for a connected node is refused: replacing
            # the live connection would orphan the real worker's socket
            # and the run would block on a frame that never comes.
            if kind != framing.HELLO or name not in names \
                    or name in self.socks:
                raise ServeError(f"refused HELLO from {name!r}")
            framing.send_frame(conn, framing.ACK, {})
        except (ServeError, OSError):
            conn.close()
            return
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(REPLY_TIMEOUT_S)
        self.socks[name] = conn

    def send(self, name: str, kind: int, header: dict[str, Any],
             blob: bytes) -> None:
        framing.send_frame(self.socks[name], kind, header, blob)

    def recv(self, name: str) -> tuple[int, dict[str, Any], bytes]:
        return framing.recv_frame(self.socks[name])


class ProxyNode(SimNode):
    """Coordinator-side stand-in for a worker's node.

    Attached to the real :class:`~repro.sim.network.Network` so link
    and NIC accounting is exactly the simulator's; delivery is
    intercepted and forwarded to the owning worker process instead of
    running a behaviour locally.
    """

    def __init__(self, sim: Simulator, name: str, profile: NodeProfile,
                 behavior: Behavior | None,
                 coordinator: "Coordinator") -> None:
        super().__init__(sim, name, profile, None)
        self._coordinator = coordinator

    def deliver(self, msg: Any) -> None:  # type: ignore[override]
        self._coordinator.stash_dispatch(("deliver", self.name, msg))


class WindowSample:
    """Wall-clock observation of one emitted window result."""

    __slots__ = ("index", "emit_time", "wall_offset_s")

    def __init__(self, index: int, emit_time: float,
                 wall_offset_s: float) -> None:
        self.index = index
        #: Virtual emission time (bit-identical to the simulator's).
        self.emit_time = emit_time
        #: Wall seconds since the run loop started.
        self.wall_offset_s = wall_offset_s


class Coordinator:
    """Drives one serve run over already-spawned worker processes."""

    def __init__(self, config: RunConfig, transport: Transport,
                 tracer: RunTracer | None = None) -> None:
        #: A :class:`SocketTransport` in every real run; the seam
        #: exists so the model checker can substitute in-process calls.
        self.transport = transport
        spec, ctx, tracer = make_context(config, None, tracer)
        self.ctx: SchemeContext = ctx
        self.tracer = tracer
        #: What every worker runs.  Workers build their own tracer from
        #: this, so they trace exactly when the coordinator does.
        self.worker_config = replace(config, trace=tracer is not None)
        root_profile, local_profile = resolved_profiles(config, spec)
        n = ctx.workload.n_nodes

        def proxy(sim: Simulator, name: str, profile: NodeProfile,
                  behavior: Behavior | None) -> ProxyNode:
            return ProxyNode(sim, name, profile, behavior, self)

        self.topo: StarTopology = build_star(
            n, sizer=make_sizer(spec.fmt), root_profile=root_profile,
            local_profile=local_profile, bandwidth=config.bandwidth,
            latency=config.latency,
            tiebreak_salt=config.tiebreak_salt, node_factory=proxy)
        if spec.needs_peer_mesh:
            peer_mesh(self.topo)
        #: Control-channel codec.  The fabric itself carries none:
        #: every message it routes was just decoded off a real socket
        #: and is re-encoded for the destination worker, so the
        #: structural sizer already gives the frame's length.
        self.transport_codec = MessageCodec(spec.fmt)
        self.transport_codec.seed_senders(sender_table(n))
        if tracer is not None:
            self.topo.sim.tracer = tracer
            stamp_run_meta(tracer, config, n)
            tracer.meta["runtime"] = "serve"
        self.node_names = sender_table(n)
        #: Conservative lookahead: an event at ``t`` can only affect
        #: another node at ``t + link latency`` or later, so everything
        #: below ``t0 + lookahead`` is cross-node independent.  Zero on
        #: a zero-latency fabric: each round is then the head event.
        self._lookahead = min(
            link.latency
            for link in self.topo.network.links().values())
        #: Whether the run loop throttles to the wall clock.
        self._paced = not config.saturated
        self._tokens: dict[tuple[str, int], Any] = {}
        self._dispatch: tuple[str, str, Any] | None = None
        self._stop = False
        self.windows: list[WindowSample] = []
        #: The result of record: outcomes in applied (merge) order.  A
        #: worker's FINAL may include post-stop work the merge
        #: discarded, so FINALs are not authoritative.
        self.applied_outcomes: list[WindowOutcome] = []
        #: Per-node running counter snapshot (``counters_snapshot``
        #: order), cut at the node's last *applied* op batch.
        self.worker_counters: dict[str, list[Any]] = {
            name: list(ZERO_COUNTERS) for name in self.node_names}
        #: Canonical merge keys of the current epoch's shipped slots,
        #: per node, aligned with the slot lists (class 0; tie-break is
        #: global kernel pop position).
        self._slot_keys: dict[str, list[MergeKey]] = {}
        #: Slots shipped so far.  Counted across epochs, so same-key
        #: events a zero-lookahead fabric splits over successive
        #: one-event epochs still carry strictly increasing keys.
        self._slot_pos = 0
        #: When set (the model checker sets it to ``[]``), every merge
        #: application appends ``(worker, canonical key)`` here across
        #: epochs — the global applied order the checker asserts on.
        self.applied_log: list[tuple[str, MergeKey]] | None = None
        #: Per node, how many batches of its latest epoch the merge
        #: applied; FINISH carries it so a worker that ran past a
        #: mid-epoch stop cuts its standing-query feed at the same item.
        self.applied_items: dict[str, int] = {
            name: 0 for name in self.node_names}
        self.finals: dict[str, dict[str, Any]] = {}
        #: Standing-query admissions applied right after START (each a
        #: ``(stream, spec, at)`` tuple; ``at`` may be None for "now").
        #: The harness fills this from its ``admissions`` argument.
        self.admissions: list[tuple[str, str, int | None]] = []
        self._next_qid = 0
        self.wall_seconds = 0.0
        self._wall_start = 0.0
        # Causal instrumentation (active only when tracing): the
        # coordinator's own program order, its outgoing frame
        # numbering, and the current epoch round ordinal.
        self._causal_seq = 0
        self._frame_seq = 0
        self._epoch_idx = -1

    # -- control RPC -------------------------------------------------------

    def stash_dispatch(self, dispatch: tuple[str, str, Any]) -> None:
        """Record the worker dispatch the current kernel event needs.

        Every kernel event in a serve run resolves to at most one
        dispatch (a proxy delivery or a worker timer); the run loop
        forwards it after the event's callback returns.
        """
        if self._dispatch is not None:
            raise ServeError(
                "one kernel event produced two worker dispatches")
        self._dispatch = dispatch

    def _causal(self, kind: str, **data: Any) -> None:
        """Record one coordinator causal event (see repro.obs.events):
        own program order via ``seq``, frame edges via ``fseq``."""
        if self.tracer is None:
            return
        self._causal_seq += 1
        self.tracer.event(kind, self.topo.sim.now, COORD_PROCESS,
                          seq=self._causal_seq, **data)

    #: A transport fault: EOF or reset (the process died) or the reply
    #: deadline (it is alive but silent; ``exc`` reads "timed out").
    _LOST = "node {!r} process died or hung mid-run: {}"

    def _send(self, name: str, kind: int, header: dict[str, Any],
              blob: bytes = b"") -> None:
        """Write one request frame to ``name`` (``header`` is the
        caller's to give away: a traced run tags it)."""
        # FINISH/FINAL sit outside the causal model: FINAL *carries*
        # the worker's trace.
        if self.tracer is not None and kind != framing.FINISH:
            self.tracer.inc("serve_frames_sent", name)
            self._frame_seq += 1
            header["f"] = self._frame_seq
            self._causal(FRAME_SEND, fseq=self._frame_seq, dst=name,
                         fkind=kind)
        try:
            self.transport.send(name, kind, header, blob)
        except (ServeError, OSError) as exc:
            raise ServeError(self._LOST.format(name, exc)) from None

    def _recv(self, name: str,
              expect: int) -> tuple[dict[str, Any], bytes]:
        """Read ``name``'s reply frame, which must be of kind
        ``expect``; returns its (header, blob)."""
        try:
            kind, reply, blob = self.transport.recv(name)
        except (ServeError, OSError) as exc:
            raise ServeError(self._LOST.format(name, exc)) from None
        if kind == framing.ERROR:
            raise ServeError(
                f"node {name!r} failed: {reply.get('error')}")
        if kind != expect:
            raise ServeError(
                f"unexpected reply kind {kind} from {name!r}")
        # A traced worker tags every op reply (never its FINAL).
        if self.tracer is not None and "f" in reply:
            self.tracer.inc("serve_frames_recv", name)
            self._causal(FRAME_RECV, fseq=reply["f"], edge=name,
                         fkind=kind)
        return reply, blob

    def _rpc(self, name: str, kind: int,
             header: dict[str, Any]) -> None:
        """One control round-trip (INJECT/START/QUERY): instruct, read
        the op list, apply it."""
        self._send(name, kind, header)
        reply, blob = self._recv(name, framing.OPS)
        self.worker_counters[name] = reply["c"]
        self._apply_ops(name, reply["ops"], blob)

    def _apply_ops(self, name: str, ops: list[list[Any]],
                   blob: bytes,
                   epoch: EpochMerge | None = None) -> None:
        """Apply one op list; ``epoch`` keeps sub-horizon timers (which
        already ran worker-locally) out of the kernel during a merge."""
        sim = self.topo.sim
        for op in ops:
            tag = op[0]
            if tag == OP_SCHEDULE:
                _, at, phase, rank, token = op
                if epoch is not None and at < epoch.horizon:
                    epoch.record_timer(name, at, phase, tuple(rank),
                                       token)
                    continue
                handle = sim.schedule_at(
                    at, self._marker(name, token), phase=phase,
                    rank=tuple(rank))
                self._tokens[(name, token)] = handle
            elif tag == OP_CANCEL:
                if epoch is not None and epoch.drop_timer(name, op[1]):
                    continue
                handle = self._tokens.pop((name, op[1]), None)
                if handle is not None:
                    handle.cancel()
            elif tag == OP_SEND:
                _, dst, offset, length = op
                msg = self.transport_codec.decode_message(
                    bytes(blob[offset:offset + length]))
                self.topo.network.send(name, dst, msg)
            elif tag == OP_STOP:
                self._stop = True
            elif tag == OP_OUTCOME:
                self._record_outcome(outcome_from_json(op[1]))
            else:
                raise ServeError(
                    f"unknown op {tag!r} from node {name!r}")

    def _record_outcome(self, outcome: WindowOutcome) -> None:
        wall = time.monotonic() - self._wall_start
        self.applied_outcomes.append(outcome)
        self.windows.append(
            WindowSample(outcome.index, outcome.emit_time, wall))
        if self.tracer is not None:
            self.tracer.gauge("serve_window_wall_s", ROOT_NAME, wall)
            self.tracer.gauge(
                "serve_window_latency_s", ROOT_NAME,
                max(0.0, wall - outcome.emit_time))

    def _marker(self, name: str, token: int) -> Any:
        def fire() -> None:
            self._tokens.pop((name, token), None)
            self.stash_dispatch(("run", name, token))
        return fire

    # -- run loop ----------------------------------------------------------

    def run(self) -> None:
        """Init, run epochs to completion, collect FINAL payloads."""
        # Replicate run_simulation's order exactly: inject every local
        # stream (0..n-1), then start root, then start the locals.
        for i in range(self.ctx.workload.n_nodes):
            self._rpc(local_name(i), framing.INJECT, {"now": 0.0})
        for name in self.node_names:
            self._rpc(name, framing.START, {"now": 0.0})
        for stream, spec, at in self.admissions:
            self.admit_query(stream, spec, at)
        self._epoch_loop()
        for name in self.node_names:
            self._send(name, framing.FINISH,
                       {"applied": self.applied_items[name]})
            self.finals[name], _ = self._recv(name, framing.FINAL)

    # -- standing-query ops ------------------------------------------------

    def admit_query(self, stream: str, spec: str,
                    at: int | None = None) -> str:
        """Broadcast a standing-query admission; returns its id.

        Every worker registers the query (so registries agree); only
        the stream's owner feeds it and ships its account in FINAL.
        Config-admitted queries take ids ``q<N>`` on the workers, so
        runtime admissions use a disjoint ``rq<N>`` namespace.
        """
        qid = f"rq{self._next_qid}"
        self._next_qid += 1
        header = {"now": self.topo.sim.now, "qop": "admit",
                  "stream": stream, "spec": spec, "qid": qid, "at": at}
        for name in self.node_names:
            self._rpc(name, framing.QUERY, dict(header))
        return qid

    # -- epoch execution ---------------------------------------------------

    def _epoch_loop(self) -> None:
        """Conservative-parallel run loop (DESIGN §12).

        Each round pops the head kernel event and every further event
        below the safe horizon, writes each worker its whole share as
        one EPOCH frame, then reads the replies and replays the op
        batches in canonical global order.  Every request is written
        before any reply is read, and a worker reads its whole request
        before it executes, so neither side can block the other.
        Progress is guaranteed: the head event is always taken, so
        every round executes at least one event (exactly one when the
        fabric has no lookahead).
        """
        sim = self.topo.sim
        cap = simulation_cap_s(self.ctx)
        self._wall_start = time.monotonic()
        while not self._stop:
            event = sim.peek()
            if event is None:
                sim._now = max(sim._now, cap)
                break
            if event.time > cap:
                sim._now = cap
                break
            if self._paced:
                delay = (self._wall_start + event.time
                         - time.monotonic())
                if delay > 0:
                    time.sleep(delay)
            self._epoch_idx += 1
            horizon = self._pick_horizon(event.time)
            slots, blobs = self._collect_epoch(horizon, cap)
            names = [n for n in self.node_names if slots[n]]
            for name in names:
                self._send(name, framing.EPOCH,
                           {"h": horizon, "slots": slots[name],
                            "e": self._epoch_idx}, bytes(blobs[name]))
            replies: dict[str, tuple[list[dict[str, Any]], bytes]] = {}
            for name in self._reply_order(names):
                reply, blob = self._recv(name, framing.EPOCH_OPS)
                replies[name] = (reply["batches"], blob)
            self._merge_epoch(replies, horizon)
        self.wall_seconds = time.monotonic() - self._wall_start

    # The runtime's two interleaving freedoms.  Production always takes
    # the first choice; the model checker (repro.analysis.explore)
    # overrides exactly these two to enumerate the rest.

    def _pick_horizon(self, t0: float) -> float:
        """The epoch boundary for a head event at ``t0``: any value in
        ``(t0, t0 + lookahead]`` is sound; the widest does most work."""
        return t0 + self._lookahead

    def _reply_order(self, names: list[str]) -> list[str]:
        """The order replies are read, hence the order the merge scans
        its queues; the merged result must not depend on it."""
        return names

    def _collect_epoch(
            self, horizon: float, cap: float
    ) -> tuple[dict[str, list[list[Any]]], dict[str, bytearray]]:
        """Pop the head event, then every live kernel event below
        ``horizon``, into per-node slot lists (kernel pop order is the
        canonical global order).  The caller has checked the head is
        live and within ``cap``.

        Also records each slot's canonical merge key (class 0,
        tie-broken by global pop position) into ``_slot_keys``.
        """
        sim = self.topo.sim
        slots: dict[str, list[list[Any]]] = {
            name: [] for name in self.node_names}
        blobs: dict[str, bytearray] = {
            name: bytearray() for name in self.node_names}
        self._slot_keys = {name: [] for name in self.node_names}
        event = sim.peek()
        while event is not None:
            key = (event.time, event.phase, event.rank)
            self._dispatch = None
            sim.run(until=cap, max_events=1)
            if self._dispatch is not None:
                verb, name, payload = self._dispatch
                self._dispatch = None
                if verb == "run":
                    slots[name].append(
                        ["run", key[0], key[1], list(key[2]), payload])
                else:
                    frame = self.transport_codec.encode_message(payload)
                    offset = len(blobs[name])
                    blobs[name] += frame
                    slots[name].append(
                        ["deliver", key[0], key[1], list(key[2]),
                         offset, len(frame)])
                self._slot_keys[name].append(
                    slot_key(key[0], key[1], key[2], self._slot_pos))
                self._slot_pos += 1
            event = sim.peek()
            if event is not None and (event.time >= horizon
                                      or event.time > cap):
                break
        return slots, blobs

    def _merge_epoch(
            self, replies: dict[str, tuple[list[dict[str, Any]],
                                           bytes]],
            horizon: float) -> None:
        """Replay the epoch's op batches in canonical global order.

        Per-worker batches are FIFO (each worker executed them in its
        local merged order), so a K-way merge on the head keys
        reproduces the canonical global order; a timer batch's key was
        recorded when its creating schedule op applied, which — being
        an earlier item of the same worker — is always already merged.
        The clock is pinned to each item's execution time while its
        ops apply, so kernel validation and fabric reservations see
        the same ``now`` the oracle would have.
        """
        sim = self.topo.sim
        epoch = EpochMerge(
            horizon, {n: i for i, n in enumerate(self.node_names)},
            self._slot_keys)
        queues = {name: deque(batches)
                  for name, (batches, _) in replies.items()}
        blobs = {name: blob for name, (_, blob) in replies.items()}
        for name in replies:
            self.applied_items[name] = 0
        while not self._stop:
            popped = epoch.pop_next(queues)
            if popped is None:
                break
            best, batch, best_key = popped
            if self.applied_log is not None:
                self.applied_log.append((best, best_key))
            sim._now = best_key[0]
            if self.tracer is not None:
                ref = batch["ref"]
                self._causal(
                    OP_APPLY, src=best, ref=f"{ref[0]}:{ref[1]}",
                    epoch=self._epoch_idx,
                    kt=best_key[0], kp=best_key[1],
                    kr=",".join(best_key[2]), kc=best_key[3],
                    kb=",".join(str(x) for x in best_key[4]),
                    windows=",".join(
                        str(op[1]["index"]) for op in batch["ops"]
                        if op[0] == OP_OUTCOME))
            self._apply_ops(best, batch["ops"], blobs[best],
                            epoch=epoch)
            self.worker_counters[best] = batch["c"]
            self.applied_items[best] += 1
        # On stop, every remaining batch is discarded unapplied:
        # kernel semantics run nothing past the stopping callback, and
        # the per-batch counter snapshots cut each worker's counter
        # contribution at its last applied item.
