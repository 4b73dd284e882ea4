"""Runtime layer: one node class on one kernel, two fabrics.

The scheme behaviours (:mod:`repro.core`, :mod:`repro.baselines`) are
written against :class:`~repro.runtime.node.RuntimeNode` — a clock,
timer scheduling, message send, node identity — and never against the
simulator directly.  A node always runs on a
:class:`~repro.sim.kernel.Simulator`; what differs is the fabric it
sends through:

* the simulator's :class:`~repro.sim.network.Network`, the
  deterministic oracle every result is fingerprinted on, and
* the :mod:`repro.serve` coordinator, which runs each node on its own
  kernel in a real OS process speaking the binary wire codec over TCP
  while reproducing the oracle's event schedule bit-for-bit (see
  DESIGN §11).

The ``sim-free-core`` row of ``tests/test_layout.py`` enforces the
boundary: protocol code must import this package, not
:mod:`repro.sim`.
"""

from repro.runtime.api import (DEFAULT_LATENCY_S, ETHERNET_1G,
                               ETHERNET_25G, PHASE_DELIVER,
                               PHASE_PROTOCOL, PHASE_SOURCE, ROOT_NAME,
                               local_name)
from repro.runtime.node import (INTEL_XEON, RASPBERRY_PI_4B, Behavior,
                                NodeMetrics, NodeProfile, RuntimeNode,
                                Sealed, Timeout)

__all__ = [
    "DEFAULT_LATENCY_S", "ETHERNET_1G", "ETHERNET_25G",
    "PHASE_DELIVER", "PHASE_PROTOCOL", "PHASE_SOURCE", "ROOT_NAME",
    "local_name",
    "INTEL_XEON", "RASPBERRY_PI_4B", "Behavior", "NodeMetrics",
    "NodeProfile", "RuntimeNode", "Sealed", "Timeout",
]
