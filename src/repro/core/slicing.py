"""Slice and buffer sizing (Sections 4.2.2-4.2.3).

Deco_sync splits each predicted local window into a *local slice*
(partially aggregated in place) and a trailing *local buffer* (raw
events shipped to the root):

    l_slice  = max(0, l-hat - Delta)      (Eq. 3)
    l_buffer = 2 * Delta                  (Eq. 4)

Deco_async splits it three ways so that consecutive speculative windows
can absorb boundary drift on both sides:

    l_slice   = max(0, l-hat - 2 * Delta)   (Eq. 9)
    l_Fbuffer = l_Ebuffer = Delta           (Eq. 10)
    (if l_slice == 0: Fbuffer = Ebuffer = l-hat / 2)

Every speculative window consumes exactly ``l-hat`` events — the only
unbiased choice: consuming more would systematically drift the
speculative start away from the actual boundary.  Between corrections,
that drift performs a reflected random walk inside the ``Delta``-wide
acceptance band; corrections reset it.  This is why Deco_async "executes
more correction steps than Deco_sync" (Section 5.2) even at small rate
changes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.errors import ConfigurationError


class SyncLayout(NamedTuple):
    """Deco_sync local window layout: slice then buffer."""

    slice_size: int
    buffer_size: int

    @property
    def total(self) -> int:
        """Events consumed per local window (slice + buffer)."""
        return self.slice_size + self.buffer_size


class AsyncLayout(NamedTuple):
    """Deco_async local window layout: Fbuffer, slice, Ebuffer."""

    fbuffer_size: int
    slice_size: int
    ebuffer_size: int

    @property
    def total(self) -> int:
        """Events consumed per speculative local window."""
        return self.fbuffer_size + self.slice_size + self.ebuffer_size


def _check(predicted: int, delta: int) -> None:
    if predicted < 0:
        raise ConfigurationError(
            f"predicted size must be >= 0, got {predicted}")
    if delta < 0:
        raise ConfigurationError(f"delta must be >= 0, got {delta}")


def sync_layout(predicted: int, delta: int) -> SyncLayout:
    """Eq. 3-4: the Deco_sync slice/buffer split."""
    _check(predicted, delta)
    slice_size = predicted - delta if predicted > delta else 0
    return SyncLayout(slice_size=slice_size, buffer_size=2 * delta)


def async_layout(predicted: int, delta: int) -> AsyncLayout:
    """Eq. 9-10: the Deco_async Fbuffer/slice/Ebuffer split."""
    _check(predicted, delta)
    if predicted > 2 * delta:
        return AsyncLayout(fbuffer_size=delta,
                           slice_size=predicted - 2 * delta,
                           ebuffer_size=delta)
    # Degenerate prediction: split the window between the buffers
    # (Section 4.2.3: "If l_slice is 0, we calculate l_Fbuffer and
    # l_Ebuffer as l/2").
    side = (predicted + 1) // 2
    return AsyncLayout(fbuffer_size=side, slice_size=0,
                       ebuffer_size=side)


def mon_local_sizes(rates: Sequence[float],
                    global_window: int) -> list[int]:
    """Section 4.1 split: local window sizes proportional to event rates.

    ``l_a = f_a / f_root * l_global``, with the rounding remainder
    assigned by largest fractional part so the sizes always sum to the
    global window size.
    """
    rates = [float(r) for r in rates]
    if not rates or any(r < 0 for r in rates):
        raise ConfigurationError(f"rates must be non-negative: {rates}")
    total = sum(rates)
    if total <= 0:
        raise ConfigurationError("total event rate must be > 0")
    if global_window <= 0:
        raise ConfigurationError(
            f"global window must be > 0, got {global_window}")
    exact = [r / total * global_window for r in rates]
    floors = [int(x) for x in exact]
    remainder = global_window - sum(floors)
    by_fraction = sorted(range(len(rates)),
                         key=lambda i: exact[i] - floors[i], reverse=True)
    for i in by_fraction[:remainder]:
        floors[i] += 1
    return floors
