"""Serve coordinator: the shared virtual clock and fabric over TCP.

The coordinator owns the fabric — the :class:`~repro.sim.network.
Network` with its links and NIC reservations, and an event kernel that
holds exactly the fabric's deliveries — plus the run loop.  Every node
is a :class:`ProxyNode`: a delivery to it is forwarded to the real node
process.  Timers never come here: each worker runs its node on its
own one-node kernel, which holds all of that node's timers, and
reports with every reply when its next one is due.  What crosses the
control channel is what crosses nodes: deliveries out, and sends,
outcomes and the stop back.  The fabric
carries wire frames, not messages: a send's frame is checked at its
envelope (:func:`~repro.wire.codec.read_envelope`, CRC included),
sized, routed and traced from it, and delivered as the sender's own
bytes, so only the sending and receiving workers ever code it.

One run loop, conservative parallel execution (DESIGN §12).  Only sends
cross nodes, and a send emitted at ``t`` arrives no earlier than
``t + min-link-latency``, so with ``t0`` the earliest pending event
anywhere (the kernel head or any worker's next timer) everything below
the horizon ``t0 + lookahead`` is independent across workers.  Each
round the coordinator pops every delivery below the horizon, ships
each worker that has a delivery or a timer below it ONE batched EPOCH
frame, reads the replies once every frame is written (the workers are
separate processes, so they execute concurrently), then replays the
returned op batches in canonical ``(time, phase, rank)`` order.
Results, emission times included, are identical to the oracle's
(emission order within an equal-key class is covered by the same
invariance contract as the tie-break salt).  A fabric whose minimum link latency is zero has no
lookahead: each round is then the single instant ``t0``, which still
makes progress because every frame has at least 32 bytes and so
arrives strictly after it was sent.

Pacing: a *paced* run (``config.saturated=False``) throttles the event
loop to the virtual clock (one virtual second per wall second), so
per-window wall latencies measure a real load test.  A *saturated* run
lets virtual time free-run and measures sustained pipeline throughput.
"""

from __future__ import annotations

import math
import socket
import time
from collections import deque
from typing import Any, Protocol

from repro.core.context import SchemeContext
from repro.core.records import WindowOutcome
from repro.core.runner import RunConfig, make_context
from repro.errors import ConfigurationError, ServeError, StreamError
from repro.obs.events import COORD_PROCESS, OP_APPLY
from repro.obs.tracer import RunTracer
from repro.runtime.api import ROOT_NAME
from repro.runtime.driver import (resolved_profiles, simulation_cap_s,
                                  stamp_run_meta)
from repro.runtime.node import Behavior, NodeProfile, RuntimeNode
from repro.serve import framing
from repro.serve.merge import EpochMerge, MergeKey, slot_key
from repro.serve.protocol import (OP_OUTCOME, OP_SEND, OP_STOP,
                                  outcome_from_json, sender_table)
from repro.sim.kernel import Simulator
from repro.sim.topology import StarTopology, build_star, peer_mesh
from repro.wire.codec import Envelope, read_envelope

#: Seconds to wait for every worker process to connect and HELLO.
HANDSHAKE_TIMEOUT_S = 30.0
#: Seconds an accepted connection has to say HELLO (a worker sends it
#: at once; this bounds what a silent stranger costs the accept loop).
#: Once it has, its reads carry :data:`framing.REPLY_TIMEOUT_S`.
HELLO_TIMEOUT_S = 2.0


class Transport(Protocol):
    """The coordinator's whole view of its workers: two calls."""

    def send(self, name: str, kind: int, header: dict[str, Any],
             blob: bytes | bytearray) -> None: ...

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
        conn.settimeout(framing.REPLY_TIMEOUT_S)
        self.socks[name] = conn

    def send(self, name: str, kind: int, header: dict[str, Any],
             blob: bytes | bytearray) -> None:
        framing.send_frame(self.socks[name], kind, header, blob)

    def recv(self, name: str) -> tuple[int, dict[str, Any], bytes]:
        return framing.recv_frame(self.socks[name])


class ProxyNode(RuntimeNode):
    """Coordinator-side stand-in for a worker's node.

    Attached to the real :class:`~repro.sim.network.Network` so link
    and NIC accounting is exactly the simulator's; delivery is
    intercepted and shipped to the owning worker process instead of
    running a behaviour locally.
    """

    def __init__(self, sim: Simulator, name: str, profile: NodeProfile,
                 behavior: Behavior | None,
                 coordinator: "Coordinator") -> None:
        super().__init__(sim, name, profile, None)
        self._coordinator = coordinator

    def deliver(self, msg: Any) -> None:  # type: ignore[override]
        self._coordinator.ship(self.name, msg)


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
        spec, ctx = make_context(config, None, tracer)
        self.ctx: SchemeContext = ctx
        #: The run's tracer (None: untraced).  Workers are told whether
        #: it is set, and trace exactly when the coordinator does.
        self.tracer = tracer
        root_profile, local_profile = resolved_profiles(config, spec)
        n = ctx.workload.n_nodes

        def proxy(sim: Simulator, name: str, profile: NodeProfile,
                  behavior: Behavior | None) -> ProxyNode:
            return ProxyNode(sim, name, profile, behavior, self)

        # The fabric routes frames unopened (see _forward): it sizes
        # each from its envelope, which equals sizeof_message of the
        # message inside, in either wire format.
        self.topo: StarTopology = build_star(
            n, sizer=lambda envelope: envelope.size(spec.fmt),
            root_profile=root_profile, local_profile=local_profile,
            bandwidth=config.bandwidth, latency=config.latency,
            tiebreak_salt=config.tiebreak_salt, node_factory=proxy)
        if spec.needs_peer_mesh:
            peer_mesh(self.topo)
        if tracer is not None:
            self.topo.sim.tracer = tracer
            stamp_run_meta(tracer, config, n)
            tracer.meta["runtime"] = "serve"
        self.node_names = sender_table(n)
        self._order = {name: i for i, name in enumerate(self.node_names)}
        #: Conservative lookahead: an event at ``t`` can only affect
        #: another node at ``t + link latency`` or later, so everything
        #: below ``t0 + lookahead`` is cross-node independent.  Zero on
        #: a zero-latency fabric: each round is then one instant.
        self._lookahead = min(
            link.latency
            for link in self.topo.network.links().values())
        #: Whether the run loop throttles to the wall clock.
        self._paced = not config.saturated
        #: When each worker's next own timer is due (from its latest
        #: reply; ``inf`` when it has none).
        self._next_timer: dict[str, float] = {
            name: math.inf for name in self.node_names}
        self._stop = False
        #: The canonical key of the batch whose stop op applied (None
        #: until one does); FINISH carries it so every worker cuts its
        #: counters and standing-query feed at the same item.
        self.stop_key: MergeKey | None = None
        self.windows: list[WindowSample] = []
        #: The result of record: outcomes in applied (merge) order.  A
        #: worker's FINAL may include post-stop work the merge
        #: discarded, so FINALs are not authoritative.
        self.applied_outcomes: list[WindowOutcome] = []
        # The current epoch's shipment, per node: slot lists, the wire
        # frames they reference, and their canonical merge keys (class
        # 0; tie-break is global kernel pop position).
        self._slots: dict[str, list[list[Any]]] = {}
        self._blobs: dict[str, bytearray] = {}
        self._slot_keys: dict[str, list[MergeKey]] = {}
        #: The ``(time, phase, rank)`` of the kernel event being popped.
        self._event_key: tuple[float, int, tuple[str, ...]] = (
            0.0, 0, ())
        #: Slots shipped so far.  Counted across epochs, so every slot
        #: key of the run is distinct.
        self._slot_pos = 0
        #: When set (the model checker sets it to ``[]``), every merge
        #: application appends ``(worker, canonical key)`` here across
        #: epochs — the global applied order the checker asserts on.
        self.applied_log: list[tuple[str, MergeKey]] | None = None
        self.finals: dict[str, dict[str, Any]] = {}
        self.wall_seconds = 0.0
        self._wall_start = 0.0

    # -- control RPC -------------------------------------------------------

    def ship(self, name: str, envelope: Envelope) -> None:
        """Add one delivery to ``name``'s EPOCH frame (called by its
        :class:`ProxyNode` while the run loop pops the delivery): the
        sender's frame, byte for byte."""
        at, phase, rank = self._event_key
        blob = self._blobs[name]
        self._slots[name].append([at, phase, rank, self._slot_pos,
                                  len(blob), len(envelope.frame)])
        blob += envelope.frame
        self._slot_keys[name].append(
            slot_key(at, phase, rank, self._slot_pos))
        self._slot_pos += 1

    #: A transport fault: EOF or reset (the process died) or the reply
    #: deadline (it is alive but silent; ``exc`` reads "timed out").
    _LOST = "node {!r} process died or hung mid-run: {}"

    def _send(self, name: str, kind: int, header: dict[str, Any],
              blob: bytes | bytearray = b"") -> None:
        """Write one request frame to ``name``."""
        # FINISH and its FINAL are not counted: FINAL *carries* the
        # worker's trace.
        if self.tracer is not None and kind != framing.FINISH:
            self.tracer.inc("serve_frames_sent", name)
        try:
            self.transport.send(name, kind, header, blob)
        except (ServeError, OSError) as exc:
            raise ServeError(self._LOST.format(name, exc)) from None

    def _recv(self, name: str,
              expect: int) -> tuple[dict[str, Any], bytes]:
        """Read ``name``'s reply frame, which must be of kind
        ``expect``; returns its (header, blob).  An op reply's ``"n"``
        updates the worker's next timer time."""
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
        if "n" in reply:
            due = reply["n"]
            self._next_timer[name] = math.inf if due is None else due
        if self.tracer is not None and kind != framing.FINAL:
            self.tracer.inc("serve_frames_recv", name)
        return reply, blob

    def _apply_ops(self, name: str, ops: list[list[Any]],
                   blob: memoryview) -> None:
        """Apply one item's cross-node effects in emission order."""
        for op in ops:
            tag = op[0]
            if tag == OP_SEND:
                self._forward(name, op, blob)
            elif tag == OP_STOP:
                self._stop = True
            elif tag == OP_OUTCOME:
                self._record_outcome(outcome_from_json(op[1]))
            else:
                raise ServeError(
                    f"unknown op {tag!r} from node {name!r}")

    def _forward(self, name: str, op: list[Any],
                 blob: memoryview) -> None:
        """Put one ``send`` op's wire frame on the fabric, unopened.

        Only the envelope is read, and checked (CRC included): the
        fabric routes, sizes and traces the message from it, and
        :meth:`ship` hands the destination the sender's own bytes, a
        view into ``blob``.  A bad frame, a slice past the blob or a
        destination without a link is the sending node's fault, and
        fails the run naming it.
        """
        _, dst, offset, length = op
        try:
            if not 0 <= offset <= offset + length <= len(blob):
                raise StreamError(
                    f"slice runs past the {len(blob)}-byte blob")
            self.topo.network.send(
                name, dst, read_envelope(blob[offset:offset + length]))
        except (StreamError, ConfigurationError) as exc:
            raise ServeError(
                f"node {name!r} sent a bad op {op!r}: {exc}") from None

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

    # -- run loop ----------------------------------------------------------

    def run(self) -> None:
        """Init, run epochs to completion, collect FINAL payloads."""
        # One START per node, root first: a local feeds itself its
        # source stream, then every node runs its start hook.  Only
        # the start hooks' ops cross nodes, and they apply in
        # run_simulation's order (root, then the locals).
        for name in self.node_names:
            self._send(name, framing.START, {})
            reply, blob = self._recv(name, framing.OPS)
            self._apply_ops(name, reply["ops"], memoryview(blob))
        self._epoch_loop()
        for name in self.node_names:
            self._send(name, framing.FINISH, {"stop": self.stop_key})
            self.finals[name], _ = self._recv(name, framing.FINAL)

    # -- epoch execution ---------------------------------------------------

    def _epoch_loop(self) -> None:
        """Conservative-parallel run loop (DESIGN §12).

        Each round takes the earliest pending time ``t0`` over the
        kernel's deliveries and every worker's next timer, pops every
        delivery below the horizon, writes one EPOCH frame to each
        worker with a delivery or a timer below it, then reads the
        replies and replays the op batches in canonical global order.
        Every request is written before any reply is read, and a
        worker reads its whole request before it executes, so neither
        side can block the other.  Progress is guaranteed: the horizon
        is above ``t0``, so every round runs at least the work due at
        ``t0``, and nothing the round creates for another node can land
        below the horizon — which the loop checks on the next round.
        """
        sim = self.topo.sim
        cap = simulation_cap_s(self.ctx)
        # Events at exactly the cap still run, as under
        # Simulator.run(until=cap).
        end = math.nextafter(cap, math.inf)
        horizon = -math.inf
        self._wall_start = time.monotonic()
        while not self._stop:
            event = sim.peek()
            t0 = min(self._next_timer.values())
            if event is not None:
                t0 = min(t0, event.time)
            if t0 < horizon:
                raise ServeError(
                    f"conservative soundness broken: event at {t0} "
                    f"below executed horizon {horizon}")
            if t0 > cap:
                sim._now = cap
                break
            if self._paced:
                delay = self._wall_start + t0 - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            horizon = min(self._pick_horizon(t0), end)
            self._collect_epoch(horizon)
            names = [n for n in self.node_names
                     if self._slots[n] or self._next_timer[n] < horizon]
            for name in names:
                self._send(name, framing.EPOCH,
                           {"h": horizon, "slots": self._slots[name]},
                           self._blobs[name])
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
        """The epoch's exclusive bound for earliest pending time ``t0``:
        any value in ``(t0, t0 + lookahead]`` is sound; the widest does
        most work.  Without lookahead it is the next float after
        ``t0``, so the round is the instant ``t0`` itself."""
        if self._lookahead > 0:
            return t0 + self._lookahead
        return math.nextafter(t0, math.inf)

    def _reply_order(self, names: list[str]) -> list[str]:
        """The order replies are read, hence the order the merge scans
        its queues; the merged result must not depend on it."""
        return names

    def _collect_epoch(self, horizon: float) -> None:
        """Pop every live kernel delivery below ``horizon`` into the
        per-node slot lists (kernel pop order is the canonical global
        order); :meth:`ship` records each one with its merge key."""
        sim = self.topo.sim
        self._slots = {name: [] for name in self.node_names}
        self._blobs = {name: bytearray() for name in self.node_names}
        self._slot_keys = {name: [] for name in self.node_names}
        event = sim.peek()
        while event is not None and event.time < horizon:
            self._event_key = (event.time, event.phase, event.rank)
            sim.run(max_events=1)
            event = sim.peek()

    def _merge_epoch(
            self, replies: dict[str, tuple[list[dict[str, Any]],
                                           bytes]],
            horizon: float) -> None:
        """Replay the epoch's op batches in canonical global order.

        Per-worker batches are FIFO (each worker executed its items in
        canonical order), so a K-way merge on the head keys reproduces
        the canonical global order.  The clock is pinned to each item's
        execution time while its ops apply, so fabric reservations see
        the same ``now`` the oracle would have.  On a stop op every
        remaining batch is discarded unapplied: kernel semantics run
        nothing past the stopping callback, and FINISH hands the stop
        key to the workers so they cut their own accounts there too.
        """
        sim = self.topo.sim
        epoch = EpochMerge(horizon, self._order, self._slot_keys)
        queues = {name: deque(batches)
                  for name, (batches, _) in replies.items()}
        blobs = {name: memoryview(blob)
                 for name, (_, blob) in replies.items()}
        while not self._stop:
            popped = epoch.pop_next(queues)
            if popped is None:
                break
            best, batch, best_key = popped
            if self.applied_log is not None:
                self.applied_log.append((best, best_key))
            sim._now = best_key[0]
            if self.tracer is not None:
                self.tracer.event(OP_APPLY, best_key[0], COORD_PROCESS,
                                  src=best)
            self._apply_ops(best, batch["ops"], blobs[best])
            if self._stop:
                self.stop_key = best_key
