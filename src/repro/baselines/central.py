"""Central: the centralized aggregation baseline.

"Central is a straightforward approach that forwards all raw events to
the root node and performs the window aggregation on the root node...
analog to an implementation of common SPEs like Flink and Spark"
(Section 5, Evaluated Approaches).  Unlike every other approach it does
*not* aggregate incrementally: events are buffered at the root and the
whole window is aggregated in one pass when it ends — which is what
gives Central its window-end latency spike (Fig. 7b) and its extra CPU
cost (buffer writes plus a cache-cold aggregation pass; Fig. 7a/9a).
"""

from __future__ import annotations

from typing import Any

from repro.core.context import SchemeContext
from repro.core.local import LocalBehaviorBase
from repro.core.protocol import Message, RawEvents, SourceBatch
from repro.core.root import RootBehaviorBase
from repro.runtime.api import ROOT_NAME
from repro.runtime.node import RuntimeNode


class CentralLocal(LocalBehaviorBase):
    """Forwards every arriving event to the root, unaggregated."""

    def __init__(self, index: int, ctx: SchemeContext) -> None:
        super().__init__(index, ctx)
        self._forwarded = 0

    def service_time(self, node: RuntimeNode, msg: Any) -> float:
        # Forwarding costs serialization, not aggregation.
        if isinstance(msg, SourceBatch):
            return (len(msg.events) * node.profile.per_event_serialize_s()
                    + node.profile.message_overhead_s)
        return node.profile.message_overhead_s

    def on_events(self, node: RuntimeNode) -> None:
        batch = self.buffer.get_range(self._forwarded, self.available)
        if len(batch) == 0:
            return
        # send_up would double-charge serialization (it is this message's
        # service time already), so send directly.
        node.send(ROOT_NAME, RawEvents(sender=node.name, window_index=-1,
                                       events=batch))
        self._forwarded = self.available
        self.buffer.release_before(self._forwarded)


class CentralRoot(RootBehaviorBase):
    """Buffers raw events per node; aggregates whole windows at the end."""

    #: Buffering an incoming tuple (copy into the window buffer).
    RAW_EVENT_FACTOR = 0.5
    #: The non-incremental window-end pass: re-read every buffered tuple
    #: (cache-cold) and apply the aggregation function.
    EMIT_BURST_FACTOR = 2.0

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.raw = self.new_raw_buffers()

    def handle(self, node: RuntimeNode, msg: Message) -> None:
        if not isinstance(msg, RawEvents):  # pragma: no cover - defensive
            raise TypeError(f"Central root got {type(msg).__name__}")
        a = self.node_index(msg.sender)
        self.raw[a].append(msg.events)
        node.account_events(len(msg.events))
        self._try_emit(node)

    def _try_emit(self, node: RuntimeNode) -> None:
        while self.next_emit < self.ctx.n_windows:
            aggregated = self.aggregate_raw_window(self.next_emit)
            if aggregated is None:
                return
            spans, partial = aggregated
            for a, (_, end) in spans.items():
                self.raw[a].release_before(end)
            self.emit(node, self.next_emit, self.fn.lower(partial), spans,
                      up_flows=1, down_flows=0)
