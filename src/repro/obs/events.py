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

Serve kinds
-----------

``op_apply``
    The serve coordinator applying one merged op batch onto the
    kernel, recorded under :data:`COORD_PROCESS`.  ``data``: ``src``
    (the worker whose batch it is).
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
OP_APPLY = "op_apply"

#: The node name the serve coordinator records its events under.
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
