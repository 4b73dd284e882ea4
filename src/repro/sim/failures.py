"""Failure injection for the cluster simulator.

Section 4.3.4's failure model: crash failures of root and local nodes,
unreliable networks that drop or delay messages, and membership changes.
These helpers install deterministic, seedable faults on a built topology
so the failure-handling paths of the schemes can be exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.topology import StarTopology


@dataclass
class DropStats:
    """What the injector actually dropped/delayed (for assertions)."""

    dropped: int = 0
    delayed: int = 0


class MessageFaultInjector:
    """Randomly drop and/or delay messages on selected directed pairs."""

    def __init__(self, topo: StarTopology, *, drop_probability: float = 0.0,
                 delay_probability: float = 0.0, delay_s: float = 0.0,
                 pairs: set[tuple[str, str]] | None = None,
                 seed: int = 0) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1], got "
                f"{drop_probability}")
        if not 0.0 <= delay_probability <= 1.0:
            raise ConfigurationError(
                f"delay_probability must be in [0, 1], got "
                f"{delay_probability}")
        # NaN fails every comparison and inf is not below inf.
        if not 0.0 <= delay_s < math.inf:
            raise ConfigurationError(
                f"delay_s must be finite and >= 0, got {delay_s}")
        self.drop_probability = drop_probability
        self.delay_probability = delay_probability
        self.delay_s = delay_s
        self.pairs = pairs
        self.stats = DropStats()
        self._rng = np.random.default_rng(seed)
        topo.network.drop_filter = self._maybe_drop
        topo.network.delay_fn = self._maybe_delay

    def _applies(self, src: str, dst: str) -> bool:
        return self.pairs is None or (src, dst) in self.pairs

    def _maybe_drop(self, src: str, dst: str, msg: Any,
                    size: int) -> bool:
        if (self._applies(src, dst)
                and self._rng.random() < self.drop_probability):
            self.stats.dropped += 1
            return True
        return False

    def _maybe_delay(self, src: str, dst: str, msg: Any) -> float:
        if (self._applies(src, dst)
                and self._rng.random() < self.delay_probability):
            self.stats.delayed += 1
            return self.delay_s
        return 0.0


def crash_node_at(topo: StarTopology, node_name: str,
                  at_time: float) -> None:
    """Schedule a fail-stop crash of ``node_name`` at ``at_time``."""
    node = topo.network.node(node_name)
    topo.sim.schedule_at(at_time, node.crash)


def recover_node_at(topo: StarTopology, node_name: str,
                    at_time: float) -> None:
    """Schedule recovery of a crashed node at ``at_time``."""
    node = topo.network.node(node_name)
    topo.sim.schedule_at(at_time, node.recover)
