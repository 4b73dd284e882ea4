"""Cluster topology builders.

Deco's deployment is a star (Figure 1): data stream nodes feed local
nodes, local nodes connect to one root node.  :func:`build_star`
assembles that shape on the simulator; its defaults are the paper's
Intel Xeon cluster with 25 GbE, and Fig. 11's Raspberry Pi cluster (Pi
locals, 1 GbE, an Intel root) is the same star with the profiles and
bandwidth of its run config (``experiments/fig11.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.errors import ConfigurationError
from repro.runtime import (DEFAULT_LATENCY_S, ETHERNET_25G, INTEL_XEON,
                           ROOT_NAME, Behavior, NodeProfile, local_name)
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.node import SimNode

__all__ = ["StarTopology", "build_star", "peer_mesh"]


@dataclass
class StarTopology:
    """A built star cluster: one root, ``n`` local nodes, full wiring."""

    sim: Simulator
    network: Network
    root: SimNode
    locals: list[SimNode] = field(default_factory=list)

    @property
    def n_locals(self) -> int:
        """Number of local nodes currently in the topology."""
        return len(self.locals)

    def local(self, i: int) -> SimNode:
        """Local node by index."""
        return self.locals[i]

    def start(self) -> None:
        """Run every node's behaviour start hook."""
        self.root.start()
        for node in self.locals:
            node.start()


def build_star(n_locals: int, sizer: Callable[[Any], int], *,
               root_profile: NodeProfile = INTEL_XEON,
               local_profile: NodeProfile = INTEL_XEON,
               bandwidth: float = ETHERNET_25G,
               latency: float = DEFAULT_LATENCY_S,
               root_behavior: Behavior | None = None,
               local_behavior_factory: Callable[[int], Behavior] | None = None,
               tiebreak_salt: int = 0,
               node_factory: Callable[..., SimNode] = SimNode
               ) -> StarTopology:
    """Build a star cluster of one root and ``n_locals`` local nodes.

    Args:
        n_locals: Number of local (middle-layer) nodes.
        sizer: Message-size function for the fabric.
        root_profile / local_profile: Hardware profiles.
        bandwidth / latency: Link parameters for every local-root link.
        root_behavior: Behaviour installed on the root node.
        local_behavior_factory: ``i -> Behavior`` for local node ``i``.
        tiebreak_salt: Same-time event-order permutation salt for the
            determinism contract (see :class:`~repro.sim.kernel.
            Simulator`); results must not depend on it.
        node_factory: ``(sim, name, profile, behavior) -> SimNode``;
            lets the serve coordinator wire the same fabric over proxy
            nodes so the topology (and thus every link/NIC reservation)
            cannot differ from the simulator's.
    """
    if n_locals < 1:
        raise ConfigurationError(f"need >= 1 local node, got {n_locals}")
    sim = Simulator(tiebreak_salt=tiebreak_salt)
    network = Network(sim, sizer, default_bandwidth=bandwidth,
                      default_latency=latency)
    root = node_factory(sim, ROOT_NAME, root_profile, root_behavior)
    network.attach(root)
    topo = StarTopology(sim=sim, network=network, root=root)
    for i in range(n_locals):
        behavior = (local_behavior_factory(i)
                    if local_behavior_factory is not None else None)
        node = node_factory(sim, local_name(i), local_profile, behavior)
        network.attach(node)
        network.connect(node.name, ROOT_NAME)
        topo.locals.append(node)
    return topo


def peer_mesh(topo: StarTopology, bandwidth: float | None = None,
              latency: float | None = None) -> None:
    """Fully connect the local nodes to each other.

    Needed by Deco_monlocal (Section 5.1 microbenchmark), where "local
    nodes communicate with each other to exchange event rates".
    """
    names = [n.name for n in topo.locals]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            topo.network.connect(a, b, bandwidth=bandwidth,
                                 latency=latency)
