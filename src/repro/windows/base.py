"""Count-based window specifications (paper Sections 2.1-2.2).

Deco's contribution targets count-based windows, and the Scotty and
Disco baselines stand in here only as count-window communication
patterns, so tumbling and sliding count windows are the two specs.
:func:`union_slice_size` is the slice grid a set of them shares.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def union_slice_size(
        specs: Iterable[TumblingCountWindow | SlidingCountWindow]) -> int:
    """Shared slice size for a *set* of count windows: the gcd of every
    registered length and step, so all windows' edges fall on slice
    boundaries (the union of the windows' edges is a subset of the
    slice grid).  Scotty's per-query ``gcd(length, step)`` generalizes
    to this when many standing queries share one stream; the
    multi-query engine reports it as each group's ``slice_grid``.
    Returns 0 for an empty set (``gcd`` identity).
    """
    g = 0
    for spec in specs:
        step = (spec.step if isinstance(spec, SlidingCountWindow)
                else spec.length)
        g = math.gcd(g, math.gcd(spec.length, step))
    return g
