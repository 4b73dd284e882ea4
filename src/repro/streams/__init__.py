"""Data stream substrate: events, batches, generators, watermarks."""

from repro.streams.batch import EventBatch
from repro.streams.debs import (ReplayValues, SoccerTraceGenerator,
                                replay_dataset)
from repro.streams.event import Event, TICKS_PER_SECOND, ticks_to_seconds
from repro.streams.generator import (GaussianValues, RateChangeGenerator,
                                     UniformValues, replayed_offsets)
from repro.streams.watermark import WatermarkTracker

__all__ = [
    "Event",
    "EventBatch",
    "TICKS_PER_SECOND",
    "ticks_to_seconds",
    "RateChangeGenerator",
    "UniformValues",
    "GaussianValues",
    "replayed_offsets",
    "SoccerTraceGenerator",
    "ReplayValues",
    "replay_dataset",
    "WatermarkTracker",
]
