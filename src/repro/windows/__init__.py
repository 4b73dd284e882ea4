"""Count window specs."""

from repro.windows.base import SlidingCountWindow, TumblingCountWindow

__all__ = [
    "TumblingCountWindow",
    "SlidingCountWindow",
]
