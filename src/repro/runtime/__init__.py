"""Runtime driver layer: one protocol core, two execution drivers.

The scheme behaviours (:mod:`repro.core`, :mod:`repro.baselines`) are
written against the small driver interface defined here — a clock,
timer scheduling, message send, node identity — and never against a
concrete execution engine.  Two drivers implement the interface:

* the discrete-event :class:`~repro.sim.kernel.Simulator` (via
  :class:`~repro.sim.node.SimNode`), the deterministic oracle every
  result is fingerprinted on, and
* the :mod:`repro.serve` runtime, which runs each node as a real OS
  process speaking the binary wire codec over TCP while reproducing the
  oracle's event schedule bit-for-bit (see DESIGN §11).

The ``sim-free-core`` row of ``tests/test_layout.py`` enforces the
boundary: protocol code must import this package, not
:mod:`repro.sim`.
"""

from repro.runtime.api import (DEFAULT_LATENCY_S, ETHERNET_1G,
                               ETHERNET_25G, PHASE_DELIVER,
                               PHASE_PROTOCOL, PHASE_SOURCE, ROOT_NAME,
                               TimerHandle, local_name)
from repro.runtime.node import (INTEL_XEON, RASPBERRY_PI_4B, Behavior,
                                NodeMetrics, NodeProfile, RuntimeNode,
                                Sealed, Timeout)

__all__ = [
    "DEFAULT_LATENCY_S", "ETHERNET_1G", "ETHERNET_25G",
    "PHASE_DELIVER", "PHASE_PROTOCOL", "PHASE_SOURCE", "ROOT_NAME",
    "TimerHandle", "local_name",
    "INTEL_XEON", "RASPBERRY_PI_4B", "Behavior", "NodeMetrics",
    "NodeProfile", "RuntimeNode", "Sealed", "Timeout",
]
