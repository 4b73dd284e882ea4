"""Discrete-event cluster simulator substrate."""

from repro.sim.failures import (MessageFaultInjector, crash_node_at,
                                recover_node_at)
from repro.sim.kernel import ScheduledEvent, Simulator, Timeout
from repro.sim.network import (DEFAULT_LATENCY_S, ETHERNET_1G,
                               ETHERNET_25G, Link, LinkStats, Network)
from repro.sim.node import (INTEL_XEON, RASPBERRY_PI_4B, Behavior,
                            NodeMetrics, NodeProfile, SimNode)
from repro.sim.topology import (ROOT_NAME, StarTopology, build_rpi_star,
                                build_star, local_name, peer_mesh)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Timeout",
    "Network",
    "Link",
    "LinkStats",
    "ETHERNET_25G",
    "ETHERNET_1G",
    "DEFAULT_LATENCY_S",
    "SimNode",
    "NodeProfile",
    "NodeMetrics",
    "Behavior",
    "INTEL_XEON",
    "RASPBERRY_PI_4B",
    "StarTopology",
    "build_star",
    "build_rpi_star",
    "peer_mesh",
    "local_name",
    "ROOT_NAME",
    "MessageFaultInjector",
    "crash_node_at",
    "recover_node_at",
]
