"""Discrete-event cluster simulator substrate."""

from repro.sim.failures import (MessageFaultInjector, crash_node_at,
                                recover_node_at)
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.network import Link, LinkStats, Network
from repro.sim.node import SimNode
from repro.sim.topology import StarTopology, build_star, peer_mesh

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Network",
    "Link",
    "LinkStats",
    "SimNode",
    "StarTopology",
    "build_star",
    "peer_mesh",
    "MessageFaultInjector",
    "crash_node_at",
    "recover_node_at",
]
