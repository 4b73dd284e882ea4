"""Scotty: centralized aggregation with stream slicing.

"The Scotty baseline utilizes the Scotty API and shares partial results
between concurrent windows to reduce memory usage and avoid duplicate
processing of a single event.  Scotty processes events with the
centralized aggregation" and "uses separate threads to send, receive,
and process events" (Section 5).  Concretely, versus Central:

* events are folded into the open slice *incrementally* on arrival
  (``RAW_EVENT_FACTOR = 1.0`` with no buffer-copy overhead and no
  window-end re-aggregation burst), and
* the root keeps its 3-thread pipeline (the profile default), so the
  send/receive/process stages overlap.

For count-based windows Scotty still aggregates centrally — it gains
nothing from extra local nodes (Fig. 9a).  Only the cost model differs
from Central: window results come from :class:`CentralRoot`'s exact
spans, and the slicing itself is modelled in ``service_time`` through
the two factors below, so no slice partials are computed.
"""

from __future__ import annotations

from repro.baselines.central import CentralLocal, CentralRoot


class ScottyLocal(CentralLocal):
    """Identical to Central's local: forward raw events."""


class ScottyRoot(CentralRoot):
    """Incremental slicing aggregation at the root, as a cost model."""

    #: Incremental fold of each arriving event into the open slice.
    RAW_EVENT_FACTOR = 1.0
    #: Window end only combines the already-computed slice partials.
    EMIT_BURST_FACTOR = 0.0
