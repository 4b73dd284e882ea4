"""Simulated cluster nodes: the simulator driver of the runtime node.

The CPU cost model (queueing, occupancy, send overhead) lives in the
driver-agnostic :class:`~repro.runtime.node.RuntimeNode`; this module
binds it to the discrete-event kernel — the clock is
:attr:`Simulator.now <repro.sim.kernel.Simulator.now>`, timers are
kernel events, and transmission hands off to the attached
:class:`~repro.sim.network.Network`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.obs import events as ev
from repro.runtime.api import PHASE_PROTOCOL
from repro.runtime.node import Behavior, NodeProfile, RuntimeNode
from repro.sim.kernel import ScheduledEvent, Simulator

__all__ = ["SimNode"]


class SimNode(RuntimeNode):
    """A cluster node driven by the simulation kernel."""

    def __init__(self, sim: Simulator, name: str, profile: NodeProfile,
                 behavior: Behavior | None = None) -> None:
        super().__init__(name, profile, behavior)
        self.sim = sim
        self.network = None  # wired by Network.attach

    # -- driver interface --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.sim.now

    @property
    def tracer(self) -> Any:
        """The kernel's observability sink."""
        return self.sim.tracer

    def schedule_at(self, time: float, callback: Any,
                    phase: int = PHASE_PROTOCOL,
                    rank: tuple[str, ...] = ()) -> ScheduledEvent:
        """Schedule ``callback`` on the kernel at absolute ``time``."""
        return self.sim.schedule_at(time, callback, phase=phase,
                                    rank=rank)

    def request_stop(self) -> None:
        """Stop the kernel's run loop (root emission complete)."""
        self.sim.stop()

    def send(self, dst: str, msg: Any) -> None:
        # Fail at the call site, not at the deferred transmit event:
        # an unattached node is a wiring bug worth a direct traceback.
        if self.network is None:
            raise SimulationError(f"node {self.name} is not attached")
        super().send(dst, msg)

    def _transmit(self, dst: str, msg: Any) -> None:
        if self.network is None:
            raise SimulationError(f"node {self.name} is not attached")
        self.network.send(self.name, dst, msg)

    # -- lifecycle ---------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this node; it silently drops everything afterwards."""
        self.crashed = True
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, self.sim.now, self.name,
                         transition="crash")

    def recover(self) -> None:
        """Restart a crashed node (state is the behaviour's concern)."""
        self.crashed = False
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.event(ev.STATE, self.sim.now, self.name,
                         transition="recover")
