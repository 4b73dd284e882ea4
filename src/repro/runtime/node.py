"""Runtime nodes: the one node class and its CPU cost model.

A node is a single-server queue on the simulator's kernel: each
delivered message occupies the node for a service time derived from its
hardware profile and the message's content, then the node's behaviour
callback runs.  ``threads`` models pipeline parallelism — Scotty "uses
separate threads to send, receive, and process events" while Disco "only
uses a single thread" (Section 5.1) — by scaling effective service time.

:class:`RuntimeNode` is the one node implementation.  Its clock, timers,
tracer and stop are its :class:`~repro.sim.kernel.Simulator`'s, and a
transmission goes to the :class:`~repro.sim.network.Network` it is
attached to.  The serve runtime runs the same class on each worker's
own kernel: the worker's ``ServeNode`` overrides only the transmission
and the stop, and the coordinator's ``ProxyNode`` only the delivery,
so the serve runtime cannot drift from the oracle's timing arithmetic
or timer order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple, Protocol

from repro.errors import SimulationError
from repro.obs import events as ev
from repro.runtime.api import PHASE_PROTOCOL

if TYPE_CHECKING:
    from repro.sim.kernel import ScheduledEvent, Simulator
    from repro.sim.network import Network


@dataclass(frozen=True)
class NodeProfile:
    """Hardware capability profile of a cluster node.

    Rates are events per second for a single processing thread; the
    profiles are calibrated so that *ratios* between systems and node
    classes match the paper's testbed (Section 5), which is all the
    relative results need.
    """

    name: str
    #: Events/s one thread can ingest and incrementally aggregate.
    process_rate: float
    #: Events/s one thread can serialize and hand to the NIC.
    serialize_rate: float
    #: Fixed CPU time per message handled (envelope, dispatch).
    message_overhead_s: float
    #: Pipeline threads available (send / receive / process).
    threads: int = 1

    def per_event_process_s(self) -> float:
        """CPU seconds to process one event."""
        return 1.0 / self.process_rate

    def per_event_serialize_s(self) -> float:
        """CPU seconds to serialize one event."""
        return 1.0 / self.serialize_rate


# Calibrated profiles.  The Xeon Gold 5220S local nodes aggregate on the
# order of 10M events/s/thread in the paper's Java implementation; the
# Pi 4B is roughly an order of magnitude weaker per core.
INTEL_XEON = NodeProfile(
    name="intel-xeon-gold-5220s",
    process_rate=10_000_000.0,
    serialize_rate=25_000_000.0,
    message_overhead_s=20e-6,
    threads=3,
)

RASPBERRY_PI_4B = NodeProfile(
    name="raspberry-pi-4b",
    process_rate=1_200_000.0,
    serialize_rate=3_000_000.0,
    message_overhead_s=80e-6,
    threads=2,
)


class Behavior(Protocol):
    """Protocol implemented by scheme node behaviours."""

    def on_start(self, node: "RuntimeNode") -> None:
        """Called once when the run starts."""
        ...  # pragma: no cover - protocol

    def on_message(self, node: "RuntimeNode", msg: Any) -> None:
        """Handle a delivered message (after its service time elapsed)."""
        ...  # pragma: no cover - protocol

    def service_time(self, node: "RuntimeNode", msg: Any) -> float:
        """CPU seconds this message costs the receiving node."""
        ...  # pragma: no cover - protocol


class Sealed(NamedTuple):
    """A message in flight whose wire round trip waits for its handler.

    The simulator's fabric hands a receiver this instead of a decoded
    copy (see :meth:`repro.sim.network.Network.send`): ``msg`` is the
    sender's message, its arrays made read-only; ``size`` is what the
    link was charged; ``opener`` turns the pair into the copy the
    behaviour handles, called by :meth:`RuntimeNode._handle`.  Service
    time and trace labels read ``msg``, whose fields equal the decoded
    copy's, so a message still queued when the run stops is never
    coded.  An internal record of the simulator, not a protocol
    message: a named tuple, built once per delivery.
    """

    msg: Any
    size: int
    opener: Callable[[Any, int], Any]


@dataclass
class NodeMetrics:
    """Accumulated per-node accounting."""

    busy_s: float = 0.0
    messages: int = 0
    events_processed: int = 0
    max_queue: int = 0


class RuntimeNode:
    """A cluster node: single-server CPU queue plus a behaviour.

    Clock, timers, tracer and stop belong to ``sim``; sends leave
    through the :class:`~repro.sim.network.Network` that
    :meth:`~repro.sim.network.Network.attach` sets as :attr:`network`.
    """

    def __init__(self, sim: Simulator, name: str, profile: NodeProfile,
                 behavior: Behavior | None = None) -> None:
        self.sim = sim
        #: The fabric this node sends through (set by Network.attach).
        self.network: Network | None = None
        self.name = name
        self.profile = profile
        #: Pipeline threads dividing every CPU charge (at least one).
        self._threads = max(1, profile.threads)
        self.behavior = behavior
        self._cpu_free_at = 0.0
        self._queued = 0
        self.metrics = NodeMetrics()
        self.crashed = False

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"profile={self.profile.name!r})")

    # -- clock and timers --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.sim._now

    def schedule_at(self, time: float, callback: Any,
                    phase: int = PHASE_PROTOCOL,
                    rank: tuple[str, ...] = ()) -> ScheduledEvent:
        """Run ``callback`` on the kernel at absolute ``time``."""
        return self.sim.schedule_at(time, callback, phase, rank)

    def schedule(self, delay: float, callback: Any,
                 phase: int = PHASE_PROTOCOL,
                 rank: tuple[str, ...] = ()) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        return self.sim.schedule(delay, callback, phase, rank)

    def request_stop(self) -> None:
        """Stop the kernel's run loop (root emission complete)."""
        self.sim.stop()

    def start(self) -> None:
        """Run the behaviour's start hook."""
        if self.behavior is not None:
            self.behavior.on_start(self)

    # -- message handling --------------------------------------------------

    def deliver(self, msg: Any) -> None:
        """Called by the fabric when a message arrives at this node.

        The message waits for the CPU, occupies it for the behaviour's
        service time, then the behaviour handles it.  A :class:`Sealed`
        delivery is costed and labelled by the sender's message it
        holds; it is opened only in :meth:`_handle`.
        """
        if self.crashed:
            return
        behavior = self.behavior
        if behavior is None:
            raise SimulationError(f"node {self.name} has no behavior")
        sent = msg.msg if isinstance(msg, Sealed) else msg
        service = behavior.service_time(self, sent)
        if service < 0:
            raise SimulationError(
                f"negative service time {service} on {self.name}")
        # Pipeline threads overlap stages; model as a service speed-up
        # bounded by the profile's thread count.
        service /= self._threads
        sim = self.sim
        now = sim._now
        free = self._cpu_free_at
        start = free if free > now else now
        done = start + service
        self._cpu_free_at = done
        queued = self._queued = self._queued + 1
        metrics = self.metrics
        if queued > metrics.max_queue:
            metrics.max_queue = queued
        metrics.busy_s += service
        tracer = sim.tracer
        if tracer.enabled:
            tracer.event(ev.QUEUE, now, self.name, depth=queued)
            tracer.gauge("queue_depth", self.name, queued)
            if service > 0:
                tracer.event(ev.CPU, start, self.name, dur=service,
                             label=type(sent).__name__)
        sim.schedule_at(done, partial(self._handle, msg))

    def _handle(self, msg: Any) -> None:
        """Run the behaviour on a message whose service time elapsed.

        A :class:`Sealed` delivery is opened here, after the crash
        check, so the behaviour sees only the decoded copy and a
        message a crashed node drops is never coded.
        """
        self._queued -= 1
        if self.crashed:
            return
        if isinstance(msg, Sealed):
            sent, size, opener = msg
            msg = opener(sent, size)
        self.metrics.messages += 1
        sim = self.sim
        tracer = sim.tracer
        if tracer.enabled:
            now = sim._now
            tracer.event(ev.MSG_RECV, now, self.name,
                         msg=type(msg).__name__,
                         window=getattr(msg, "window_index", None))
            # Dequeue sample: no gauge call — the depth maximum is
            # always established on the enqueue side in deliver().
            tracer.event(ev.QUEUE, now, self.name,
                         depth=self._queued)
            tracer.inc("messages_received", self.name)
        assert self.behavior is not None
        self.behavior.on_message(self, msg)

    def occupy(self, duration: float, label: str = "work") -> float:
        """Occupy this node's CPU for ``duration`` seconds of work.

        Used for work not triggered by a message delivery (window-end
        aggregation bursts, speculative recomputation).  Returns the
        completion time; the caller typically schedules a follow-up
        callback there.
        """
        if duration < 0:
            raise SimulationError(f"negative occupy duration {duration}")
        duration /= self._threads
        sim = self.sim
        now = sim._now
        free = self._cpu_free_at
        start = free if free > now else now
        done = start + duration
        self._cpu_free_at = done
        self.metrics.busy_s += duration
        tracer = sim.tracer
        if tracer.enabled and duration > 0:
            tracer.event(ev.CPU, start, self.name, dur=duration,
                         label=label)
        return done

    # -- sending -----------------------------------------------------------

    def send(self, dst: str, msg: Any) -> None:
        """Send a message to another node via the fabric.

        Sending costs the node one message overhead of CPU (envelope
        construction, syscall, NIC handoff) and the message leaves when
        that work completes — which is what makes wide fan-outs (e.g.
        Deco_monlocal's peer exchange) pay an O(n) sender cost.
        """
        # Fail at the call site, not at the deferred transmit event: a
        # node that sends through a Network it was never attached to is
        # a wiring bug worth a direct traceback.
        if (self.network is None
                and type(self)._transmit is RuntimeNode._transmit):
            raise SimulationError(f"node {self.name} is not attached")
        if self.crashed:
            return
        done = self.occupy(self.profile.message_overhead_s, label="send")
        sim = self.sim
        if done > sim._now:
            # The (src, dst) rank makes same-instant sends from
            # different nodes reserve the receiver's NIC in canonical
            # order — a salt-invariant contention outcome.
            sim.schedule_at(done, partial(self._transmit, dst, msg),
                            rank=(self.name, dst))
        else:
            self._transmit(dst, msg)

    def _transmit(self, dst: str, msg: Any) -> None:
        """Hand ``msg`` to the attached fabric for ``dst``."""
        network = self.network
        if network is None:
            raise SimulationError(f"node {self.name} is not attached")
        network.send(self.name, dst, msg)

    # -- lifecycle ---------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this node; it silently drops everything afterwards."""
        self.crashed = True
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, self.sim._now, self.name,
                         transition="crash")

    def recover(self) -> None:
        """Restart a crashed node (state is the behaviour's concern)."""
        self.crashed = False
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, self.sim._now, self.name,
                         transition="recover")

    # -- accounting --------------------------------------------------------

    @property
    def cpu_free_at(self) -> float:
        """Runtime time when this node's CPU finishes its backlog.

        Exposed for backpressured source feeding: the next input batch
        is worth delivering exactly when the previous one's service
        completes.
        """
        return self._cpu_free_at

    def account_events(self, n: int) -> None:
        """Record ``n`` events as processed by this node (metrics only)."""
        self.metrics.events_processed += n

    @property
    def backlog(self) -> int:
        """Messages queued or in service right now."""
        return self._queued


class Timeout:
    """A restartable timeout on a node's kernel.

    Deco sets "timeouts for all local windows to deal with delayed
    events and missing messages" (Section 4.3.4); this helper gives the
    nodes a timer they can arm, re-arm, and cancel.
    """

    def __init__(self, node: RuntimeNode, callback: Any) -> None:
        self._node = node
        self._callback = callback
        self._handle: ScheduledEvent | None = None

    @property
    def armed(self) -> bool:
        """Whether the timeout is currently pending."""
        return self._handle is not None and not self._handle.cancelled

    def arm(self, delay: float) -> None:
        """(Re)arm the timeout ``delay`` seconds from now."""
        self.cancel()
        self._handle = self._node.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm without firing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()
