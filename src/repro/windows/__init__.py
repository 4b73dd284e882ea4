"""Count window specs and Scotty-style slicing."""

from repro.windows.base import SlidingCountWindow, TumblingCountWindow
from repro.windows.slicer import CountSlicer, WindowResult

__all__ = [
    "TumblingCountWindow",
    "SlidingCountWindow",
    "CountSlicer",
    "WindowResult",
]
