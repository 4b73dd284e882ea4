"""Typed trace events: the observability layer's event taxonomy.

Every hook in the simulator and the schemes records one of a small,
closed set of event kinds.  Keeping the taxonomy flat and stringly-keyed
(rather than one dataclass per kind) keeps the recording hot path to a
single list append and makes exporters trivially total over kinds.

Kinds
-----

``msg_send`` / ``msg_recv``
    A protocol message entering the fabric at its source / being handled
    by the destination behaviour.  ``data``: ``msg`` (class name),
    ``dst``/``src``, ``size`` (bytes, send only), ``window`` when the
    message names one.
``msg_drop`` / ``msg_delay``
    Failure-injection outcomes (:class:`~repro.sim.failures.
    MessageFaultInjector` or any installed drop/delay hook).
``msg_retransmit``
    A timeout-driven re-send under the Section 4.3.4 failure model.
``cpu``
    A CPU occupancy span on one node (message service, aggregation
    burst, serialization).  The only kind with a duration.
``queue``
    A queue-depth sample on one node (taken on enqueue and dequeue).
``window``
    Window lifecycle at the root: ``phase`` is ``assign``, ``emit`` or
    ``correct``; ``data`` carries the window index and flow counts.
``state``
    Protocol state transition (bootstrap handoff, verification failure,
    correction start/finish, Deco_async epoch rollback).

Causal (serve) kinds
--------------------

The serve runtime additionally records *causal* events when tracing,
for the happens-before analyzer (``repro check --trace``).  Every
causal event carries ``seq`` — the recording process's own program
order, monotonically increasing per process.  A merged serve trace is
re-sorted by virtual time, which collapses concurrency, so ``seq`` (not
``time``) is what carries intra-process order; cross-process order
comes only from frame identity.

``frame_send`` / ``frame_recv``
    One control frame crossing the coordinator↔worker boundary.
    ``data``: ``seq``, ``fseq`` (the sender's frame number — the causal
    edge id), ``fkind`` (framing kind), and ``dst`` (send) / ``edge``
    (recv: the sending process's name).  A recv with frame id
    ``(edge, fseq)`` happens-after the matching send.
``timer_sched`` / ``timer_fire``
    A worker scheduling / firing one of its own timers.  ``data``:
    ``seq``, ``token``, plus ``at`` on the schedule.
``op_emit``
    A worker finishing one executed item (slot or epoch-local timer)
    and emitting its op batch.  ``data``: ``seq``, ``ref``
    (``"slot:3"`` / ``"timer:7"``, or ``"rpc"`` for a control
    dispatch), ``epoch`` (coordinator round ordinal, ``-1`` for a
    control dispatch), ``windows``
    (comma-joined window indices emitted by the item, often empty).
``op_apply``
    The coordinator applying one merged op batch onto the kernel.
    ``data``: ``seq``, ``src`` (worker), ``ref``/``epoch`` matching the
    worker's ``op_emit``, the canonical merge key split into scalars
    (``kt``/``kp``/``kr``/``kc``/``kb``), and ``windows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

MSG_SEND = "msg_send"
MSG_RECV = "msg_recv"
MSG_DROP = "msg_drop"
MSG_DELAY = "msg_delay"
MSG_RETRANSMIT = "msg_retransmit"
CPU = "cpu"
QUEUE = "queue"
WINDOW = "window"
STATE = "state"
FRAME_SEND = "frame_send"
FRAME_RECV = "frame_recv"
TIMER_SCHED = "timer_sched"
TIMER_FIRE = "timer_fire"
OP_EMIT = "op_emit"
OP_APPLY = "op_apply"

#: The set of kinds carrying causal ``seq``/frame-id fields.
CAUSAL_KINDS = frozenset((FRAME_SEND, FRAME_RECV, TIMER_SCHED,
                          TIMER_FIRE, OP_EMIT, OP_APPLY))

#: Process name the coordinator records causal events under (workers
#: record under their node name).
COORD_PROCESS = "coordinator"


@dataclass
class TraceEvent:
    """One recorded event.

    ``time`` is simulation seconds; ``dur`` is nonzero only for ``cpu``
    spans.  ``data`` holds the kind-specific fields listed in the module
    docstring — JSON-scalar values only, so every exporter can serialize
    without inspection.
    """

    kind: str
    time: float
    node: str
    dur: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)
