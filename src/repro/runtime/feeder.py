"""Driver-agnostic source injection.

Both drivers feed each local node's stream the same way — *paced*
(arrival time = event time, for latency measurement) or *saturated*
(backpressured feeder, for sustainable-throughput measurement) — built
only on the :class:`~repro.runtime.node.RuntimeNode` interface, so the
injection schedule (and with it every downstream event order) is
identical under the simulator and the serve runtime.
"""

from __future__ import annotations

from repro.core.protocol import SourceBatch
from repro.errors import ConfigurationError
from repro.runtime.api import PHASE_SOURCE
from repro.runtime.node import RuntimeNode
from repro.streams.batch import EventBatch
from repro.streams.event import ticks_to_seconds


def inject_stream(node: RuntimeNode, stream: EventBatch,
                  batch_size: int, saturated: bool,
                  sender: str, sources: int = 1) -> None:
    """Start feeding one node's stream as SourceBatch deliveries.

    Injection is demand-driven on both load shapes: a saturated node
    gets one backpressured :class:`SourceFeeder`, a paced node one
    :class:`PacedSource` per client, and each holds a single pending
    timer that re-arms itself for its next batch.  Nothing is sliced,
    wrapped or scheduled ahead of the clock, so a run that stops after
    the measured windows never pays for the rest of the generated
    stream — which stays available, because speculative schemes (and
    Approx's drifting static split) may need events well past the last
    measured boundary.

    ``sources`` splits a *paced* stream into that many concurrent
    clients (strided substreams ``stream[k::sources]``), each batching
    and delivering on its own timestamps — the many-client load shape
    of a real IoT gateway, where a node's rate is the sum of its
    clients' rates.  Every source client's deliveries carry a distinct
    schedule rank so same-instant batches from different clients land
    in a canonical order (count-based windowing makes the node-local
    arrival order result-affecting; without the rank the result would
    depend on the kernel tie-break salt).  Saturated runs model one
    closed feedback loop per node, so ``sources > 1`` is rejected
    there.
    """
    if sources < 1:
        raise ConfigurationError(
            f"sources must be >= 1, got {sources}")
    if saturated:
        if sources != 1:
            raise ConfigurationError(
                "concurrent sources require a paced run "
                "(saturated mode is one closed loop per node)")
        SourceFeeder(node, stream, len(stream), batch_size,
                     sender).start()
    elif sources == 1:
        PacedSource(node, stream, batch_size, sender).arm()
    else:
        for k in range(sources):
            client = f"{sender}.{k}"
            PacedSource(node, stream[k::sources], batch_size, client,
                        rank=(client,)).arm()


class PacedSource:
    """One paced source client: arrival time = event time.

    Holds exactly one pending timer — its current batch, due at the
    batch's last timestamp — and arms the next one from inside the
    firing callback, the way an open-loop load generator follows its
    schedule instead of queueing it up front.  It keeps firing while
    the node is crashed (the node drops the delivery), so a recovered
    node resumes at the stream position the clock has reached.
    """

    __slots__ = ("_node", "_stream", "_batch_size", "_sender", "_rank",
                 "_pos", "_msg")

    def __init__(self, node: RuntimeNode, stream: EventBatch,
                 batch_size: int, sender: str,
                 rank: tuple[str, ...] = ()) -> None:
        self._node = node
        self._stream = stream
        self._batch_size = batch_size
        self._sender = sender
        self._rank = rank
        self._pos = 0
        self._msg: SourceBatch | None = None

    def arm(self) -> None:
        """Slice the next batch and schedule its delivery."""
        start = self._pos
        limit = len(self._stream)
        if start >= limit:
            return
        self._pos = end = min(start + self._batch_size, limit)
        batch = self._stream.slice_range(start, end)
        self._msg = SourceBatch(sender=self._sender, events=batch)
        self._node.schedule_at(ticks_to_seconds(batch.last_ts),
                               self._fire, phase=PHASE_SOURCE,
                               rank=self._rank)

    def _fire(self) -> None:
        self._node.deliver(self._msg)
        self.arm()


class SourceFeeder:
    """Backpressured source injection for sustainable-throughput runs.

    Delivers the next input batch as soon as the node's CPU finishes the
    previous one ("the system processes incoming data without an
    ever-increasing backlog", Section 5's sustainable-throughput setup).
    Control messages interleave between batches instead of starving
    behind an unbounded input queue.
    """

    def __init__(self, node: RuntimeNode, stream: EventBatch,
                 limit: int, batch_size: int, sender: str) -> None:
        self._node = node
        self._stream = stream
        self._limit = limit
        self._batch_size = batch_size
        self._sender = sender
        self._pos = 0

    def start(self) -> None:
        self._node.schedule_at(0.0, self._feed, phase=PHASE_SOURCE)

    #: Backpressure polling interval (runtime seconds).
    RETRY_S = 50e-6

    def _feed(self) -> None:
        if self._pos >= self._limit:
            return
        node = self._node
        behavior = node.behavior
        if (behavior is not None and hasattr(behavior, "input_paused")
                and behavior.input_paused()):
            # Bounded node memory: hold the input until the protocol
            # releases verified events.
            node.schedule(self.RETRY_S, self._feed,
                          phase=PHASE_SOURCE)
            return
        end = min(self._pos + self._batch_size, self._limit)
        batch = self._stream.slice_range(self._pos, end)
        self._pos = end
        node.deliver(SourceBatch(sender=self._sender, events=batch))
        # The node's CPU frees exactly when this batch's handler ran;
        # feed the next batch then.  PHASE_SOURCE pins this feed after
        # every same-instant protocol event (handler completions,
        # sends), so the CPU-allocation order at that instant — and
        # with it all downstream timing — is salt-invariant.
        node.schedule_at(node.cpu_free_at, self._feed,
                         phase=PHASE_SOURCE)
