"""Simulated network: links with bandwidth, latency, and byte accounting.

Every directed node pair communicates over a :class:`Link` that models
serialization delay (``size / bandwidth``), propagation latency, and FIFO
transmission.  All network-utilization numbers in the experiments come
from the per-link byte counters collected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, SimulationError
from repro.obs import events as ev
from repro.runtime import (DEFAULT_LATENCY_S, ETHERNET_25G, PHASE_DELIVER,
                           Sealed)
from repro.sim.kernel import Simulator
from repro.sim.node import SimNode

if TYPE_CHECKING:
    from repro.wire.codec import MessageCodec

__all__ = ["Link", "LinkStats", "Network"]


def _msg_name(msg: Any) -> str:
    """The message class a trace names.  A frame the serve fabric
    routes unopened (a :class:`repro.wire.codec.Envelope`) names the
    class of the message it holds."""
    cls: type = getattr(msg, "message_type", type(msg))
    return cls.__name__


@dataclass
class LinkStats:
    """Accumulated per-link traffic counters."""

    bytes_sent: int = 0
    messages_sent: int = 0
    bytes_dropped: int = 0
    messages_dropped: int = 0


class Link:
    """A directed FIFO link between two nodes."""

    def __init__(self, sim: Simulator, bandwidth_bytes_per_s: float,
                 latency_s: float) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(
                f"bandwidth must be > 0, got {bandwidth_bytes_per_s}")
        if latency_s < 0:
            raise ConfigurationError(
                f"latency must be >= 0, got {latency_s}")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self._tx_free_at = 0.0
        self._busy_accum_s = 0.0
        self.stats = LinkStats()

    def transmit(self, size_bytes: int,
                 deliver: Callable[[], None]) -> float:
        """Queue ``size_bytes`` on the link; returns the arrival time."""
        arrival = self.reserve(size_bytes) + self.latency
        self.record(size_bytes)
        self.sim.schedule_at(arrival, deliver)
        return arrival

    def reserve(self, size_bytes: int, not_before: float = 0.0) -> float:
        """Occupy the transmitter for ``size_bytes``; returns when the
        last byte leaves.  ``not_before`` delays the start (e.g. until
        the message has crossed an upstream stage)."""
        if size_bytes < 0:
            raise SimulationError(f"negative message size {size_bytes}")
        start = max(self.sim.now, self._tx_free_at, not_before)
        done = start + size_bytes / self.bandwidth
        self._tx_free_at = done
        self._busy_accum_s += size_bytes / self.bandwidth
        return done

    def record(self, size_bytes: int) -> None:
        """Account traffic on this link's counters."""
        self.stats.bytes_sent += size_bytes
        self.stats.messages_sent += 1

    @property
    def utilization_until_now(self) -> float:
        """Fraction of time the link transmitter has been busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self._busy_accum_s / self.sim.now)


class Network:
    """The cluster fabric: nodes, NICs, links, sizing, failure hooks.

    Timing model: every node has one NIC.  An outgoing message first
    serializes on the sender's egress NIC, crosses the (per-pair) link
    latency, then serializes on the receiver's ingress NIC — so a root
    node receiving from many local nodes is limited by its *own* line
    rate, exactly the effect that caps the centralized baselines at the
    Pi cluster's 1 GbE (Fig. 11b).  Per-pair links carry the byte
    accounting.
    """

    def __init__(self, sim: Simulator,
                 sizer: Callable[[Any], int],
                 default_bandwidth: float = ETHERNET_25G,
                 default_latency: float = DEFAULT_LATENCY_S) -> None:
        self.sim = sim
        self.sizer = sizer
        self.default_bandwidth = default_bandwidth
        self.default_latency = default_latency
        self._nodes: dict[str, SimNode] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._egress: dict[str, Link] = {}
        self._ingress: dict[str, Link] = {}
        #: Optional fault hook: (src, dst, msg, size) -> True to drop.
        self.drop_filter: Callable[..., bool] | None = None
        #: Optional fault hook: (src, dst, msg) -> extra delay seconds.
        self.delay_fn: Callable[..., float] | None = None
        #: Optional wire codec (``repro.wire.codec.MessageCodec``).
        #: When set, every message is frozen when sent and round-trips
        #: through one binary frame when its receiver handles it (see
        #: :meth:`send`).  Installed by the simulator driver
        #: (:func:`repro.runtime.driver.build_run`); ``None`` delivers
        #: the sender's message as-is, the bit-identity reference.
        self.codec: MessageCodec | None = None

    # -- topology -----------------------------------------------------------

    def attach(self, node: SimNode,
               nic_bandwidth: float | None = None) -> SimNode:
        """Register a node with the fabric and provision its NIC."""
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        node.network = self
        self._nodes[node.name] = node
        bandwidth = (nic_bandwidth if nic_bandwidth is not None
                     else self.default_bandwidth)
        self._egress[node.name] = Link(self.sim, bandwidth, 0.0)
        self._ingress[node.name] = Link(self.sim, bandwidth, 0.0)
        return node

    def nic(self, name: str, direction: str = "ingress") -> Link:
        """A node's ingress or egress NIC link."""
        links = self._ingress if direction == "ingress" else self._egress
        try:
            return links[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {name!r}") from None

    def node(self, name: str) -> SimNode:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {name!r}") from None

    def nodes(self) -> dict[str, SimNode]:
        """All attached nodes by name."""
        return dict(self._nodes)

    def detach(self, name: str) -> None:
        """Remove a node, its NICs, and its links (topology change)."""
        self._nodes.pop(name, None)
        self._egress.pop(name, None)
        self._ingress.pop(name, None)
        for key in [k for k in self._links if name in k]:
            del self._links[key]

    def connect(self, src: str, dst: str,
                bandwidth: float | None = None,
                latency: float | None = None,
                duplex: bool = True) -> None:
        """Create a link (by default both directions)."""
        for a, b in ((src, dst), (dst, src)) if duplex else ((src, dst),):
            self._links[(a, b)] = Link(
                self.sim,
                bandwidth if bandwidth is not None
                else self.default_bandwidth,
                latency if latency is not None else self.default_latency)

    def link(self, src: str, dst: str) -> Link:
        """The directed link from ``src`` to ``dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ConfigurationError(
                f"no link {src!r} -> {dst!r}") from None

    # -- traffic ---------------------------------------------------------------

    def send(self, src: str, dst: str, msg: Any) -> None:
        """Transmit ``msg`` from ``src`` to ``dst``.

        The link is charged the structural size from :attr:`sizer`;
        for binary formats that is the frame's length byte for byte,
        because the model derives from the frame layout.  With a codec
        installed, the message's arrays are made read-only here and the
        receiver is handed a :class:`~repro.runtime.node.Sealed`
        delivery whose one wire round trip (:meth:`_open`) runs when
        the receiver handles it: a frame that is dropped, sent to a
        crashed node or still queued when the run stops is never
        coded, and a queue holds the sender's views, not frame copies.
        The failure hooks and the send-side trace events see the
        sender's message, whose fields equal the decoded copy's.  The
        destination node's ``deliver`` runs at the arrival time unless
        a failure hook drops the message.
        """
        link = self.link(src, dst)
        size = self.sizer(msg)
        codec = self.codec
        if codec is not None:
            codec.freeze(msg)
        tracer = self.sim.tracer
        if self.drop_filter is not None and self.drop_filter(
                src, dst, msg, size):
            link.stats.bytes_dropped += size
            link.stats.messages_dropped += 1
            if tracer.enabled:
                tracer.event(ev.MSG_DROP, self.sim.now, src, dst=dst,
                             msg=_msg_name(msg), size=size)
                tracer.inc("messages_dropped", src)
            return
        dst_node = self.node(dst)
        extra = (self.delay_fn(src, dst, msg)
                 if self.delay_fn is not None else 0.0)
        if tracer.enabled:
            tracer.event(ev.MSG_SEND, self.sim.now, src, dst=dst,
                         msg=_msg_name(msg), size=size,
                         window=getattr(msg, "window_index", None))
            tracer.inc("messages_sent", src)
            tracer.inc("bytes", f"{src}->{dst}", size)
            tracer.inc("messages", f"{src}->{dst}")
            if extra > 0:
                tracer.event(ev.MSG_DELAY, self.sim.now, src, dst=dst,
                             msg=_msg_name(msg), extra_s=extra)
                tracer.inc("messages_delayed", src)

        delivery = msg if codec is None else Sealed(msg, size, self._open)

        def deliver() -> None:
            if extra > 0:
                self.sim.schedule(extra, lambda: dst_node.deliver(delivery),
                                  phase=PHASE_DELIVER,
                                  rank=(dst, src))
            else:
                dst_node.deliver(delivery)

        # Per-pair accounting; NIC-pair timing with cut-through
        # semantics: the receiver's NIC starts taking bytes one link
        # latency after the sender's NIC starts pushing them, so a
        # single message pays serialization once, while concurrent
        # senders still contend for the receiver's line rate.
        link.record(size)
        egress_done = self._egress[src].reserve(size)
        egress_start = egress_done - size / self._egress[src].bandwidth
        arrival = self._ingress[dst].reserve(
            size, not_before=egress_start + link.latency)
        # PHASE_DELIVER: an arrival coinciding with a handler
        # completion queues for the CPU after it, deterministically;
        # the rank pins arrivals to *different* nodes at one instant.
        self.sim.schedule_at(arrival, deliver, phase=PHASE_DELIVER,
                             rank=(dst, src))

    def _open(self, msg: Any, size: int) -> Any:
        """The copy of a sealed ``msg`` its receiver handles.

        Encodes the message to one binary frame, checks (binary
        formats) that the frame is exactly the ``size`` its link was
        charged, and decodes it, so receivers only ever see what
        survived the bytes.
        """
        codec = self.codec
        assert codec is not None
        frame = codec.encode_message(msg)
        if codec.sizes_from_frames and len(frame) != size:
            raise SimulationError(
                f"{type(msg).__name__} frame is {len(frame)} B but its "
                f"link was charged {size} B")
        return codec.decode_message(frame)

    # -- accounting --------------------------------------------------------------

    def links(self) -> dict[tuple[str, str], Link]:
        """All directed links keyed by ``(src, dst)`` (a copy)."""
        return dict(self._links)

    def total_bytes(self) -> int:
        """Bytes put on the wire across all links."""
        return sum(l.stats.bytes_sent for l in self._links.values())

    def total_messages(self) -> int:
        """Messages put on the wire across all links."""
        return sum(l.stats.messages_sent for l in self._links.values())

    def bytes_from(self, src: str) -> int:
        """Bytes sent by ``src`` on all its outgoing links."""
        return sum(l.stats.bytes_sent
                   for (a, _), l in self._links.items() if a == src)

    def bytes_into(self, dst: str) -> int:
        """Bytes received by ``dst`` on all its incoming links."""
        return sum(l.stats.bytes_sent
                   for (_, b), l in self._links.items() if b == dst)
