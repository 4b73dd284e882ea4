"""Count-based window specifications (paper Sections 2.1-2.2).

Deco's contribution targets count-based windows, and the Scotty and
Disco baselines stand in here only as count-window communication
patterns, so tumbling and sliding count windows are the two specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TumblingCountWindow:
    """Groups of ``length`` successive events — Deco's target window."""

    length: int

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.length <= 0:
            raise ConfigurationError(
                f"window length must be > 0, got {self.length}")


@dataclass(frozen=True)
class SlidingCountWindow:
    """Fixed ``length`` with a count ``step`` between window starts."""

    length: int
    step: int

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.length <= 0 or self.step <= 0:
            raise ConfigurationError(
                f"length and step must be > 0, got {self.length}/{self.step}")
        if self.step > self.length:
            raise ConfigurationError(
                f"step {self.step} > length {self.length} would drop events")
