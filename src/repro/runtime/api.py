"""The transport-agnostic runtime interface: phases, names, constants.

This module is the *foundation* of the runtime layer — it imports
nothing from the simulator or the serve runtime, so both drivers (and
the protocol core) can depend on it without cycles.

Scheduling phases
-----------------

All same-time events of a lower phase run before any event of a higher
phase.  Protocol/runtime events (handler completions, timers, behaviour
callbacks) use :data:`PHASE_PROTOCOL`; network *deliveries* use
:data:`PHASE_DELIVER` (a message arriving at the very instant a handler
completes queues after it); workload *injection* (source feeders, paced
arrivals) uses :data:`PHASE_SOURCE`.  Together with the ``rank`` key
these pin every cross-domain same-time ordering by design instead of by
heap-insertion accident.

Both drivers share one global event order: the simulator executes it
directly, and the serve coordinator replays the identical order over
real node processes (the simulator is the oracle — DESIGN §11).
"""

from __future__ import annotations

from typing import Protocol

PHASE_PROTOCOL = 0
PHASE_DELIVER = 1
PHASE_SOURCE = 2

#: Canonical name of the root node in every topology.
ROOT_NAME = "root"


def local_name(i: int) -> str:
    """Canonical name of local node ``i``."""
    return f"local-{i}"


def local_index(name: str) -> int:
    """Index ``i`` of the local node named ``local_name(i)``."""
    return int(name.rsplit("-", 1)[1])


#: 25 Gbit/s Ethernet of the paper's Intel cluster (bytes/s).
ETHERNET_25G = 25e9 / 8
#: 1 Gbit/s Ethernet of the Raspberry Pi cluster ("49 MB per second" is
#: its observed saturation in Fig. 11b).
ETHERNET_1G = 1e9 / 8
#: A LAN-scale propagation + switching latency.
DEFAULT_LATENCY_S = 100e-6


class TimerHandle(Protocol):
    """Handle for a scheduled callback; supports cancellation.

    Both drivers return one from ``schedule``/``schedule_at``:
    the simulator's :class:`~repro.sim.kernel.ScheduledEvent` and the
    serve worker's local token handle satisfy it structurally.
    """

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        ...  # pragma: no cover - protocol
