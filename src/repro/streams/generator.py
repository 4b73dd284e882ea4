"""Synthetic data stream generators.

The paper's evaluation uses a data generator on each local node that
assigns every event a sequential id and a timestamp, draws values from the
DEBS 2013 dataset, and exposes a single knob: the *event rate change*
parameter, e.g. "the event rate is 100 events/s and it changes between 95
to 105 events/s if the parameter is 5%" (Section 5).  This module
reproduces that generator.

Rates are re-drawn once per *epoch* of stream time (default one second):
within an epoch, events are evenly spaced; across epochs, the rate is
drawn uniformly from ``[base * (1 - change), base * (1 + change)]``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError, StreamError
from repro.streams.batch import EventBatch
from repro.streams.event import TICKS_PER_SECOND


class ValueSource(Protocol):
    """Anything that can produce ``n`` float payload values."""

    def values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return an array of ``n`` payload values."""
        ...  # pragma: no cover - protocol


class UniformValues:
    """Uniform random payload values in ``[low, high)``."""

    def __init__(self, low: float = 0.0, high: float = 1.0):
        if not high > low:
            raise ConfigurationError(f"need high > low, got [{low}, {high})")
        self.low = low
        self.high = high

    def values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


class GaussianValues:
    """Normally distributed payload values."""

    def __init__(self, mean: float = 0.0, std: float = 1.0):
        if std < 0:
            raise ConfigurationError(f"std must be >= 0, got {std}")
        self.mean = mean
        self.std = std

    def values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.std, size=n)


class RateChangeGenerator:
    """Generate one source's stream with a varying event rate.

    Args:
        base_rate: Mean event rate in events per second.
        change_fraction: The paper's rate-change parameter; ``0.05`` means
            the per-epoch rate is uniform in ``[0.95, 1.05] * base_rate``.
        epoch_seconds: How often the rate is re-drawn.
        value_source: Payload generator; defaults to uniform ``[0, 1)``.
        seed: RNG seed; two generators with equal seeds produce equal
            streams.
        start_ts: Timestamp (ticks) of the epoch grid origin.
        id_start: First sequential event id.
    """

    def __init__(self, base_rate: float, change_fraction: float = 0.0, *,
                 epoch_seconds: float = 1.0,
                 value_source: ValueSource | None = None,
                 seed: int = 0, start_ts: int = 0, id_start: int = 0):
        if base_rate <= 0:
            raise ConfigurationError(f"base_rate must be > 0, got {base_rate}")
        if not 0.0 <= change_fraction <= 1.0:
            raise ConfigurationError(
                f"change_fraction must be in [0, 1], got {change_fraction}")
        if epoch_seconds <= 0:
            raise ConfigurationError(
                f"epoch_seconds must be > 0, got {epoch_seconds}")
        self.base_rate = float(base_rate)
        self.change_fraction = float(change_fraction)
        self.epoch_seconds = float(epoch_seconds)
        self.value_source = value_source or UniformValues()
        self._rng = np.random.default_rng(seed)
        self._next_id = id_start
        self._epoch_start_ts = int(start_ts)
        self._epoch_ticks = max(1, int(round(epoch_seconds * TICKS_PER_SECOND)))
        # Leftover events of the current epoch not yet emitted: a pair of
        # (timestamps array, cursor) or None when a fresh epoch is needed.
        self._pending_ts: np.ndarray | None = None
        self._pending_cursor = 0

    # -- internal ----------------------------------------------------------

    def _draw_epoch(self) -> np.ndarray:
        """Timestamps of one full epoch at a freshly drawn rate."""
        low = self.base_rate * (1.0 - self.change_fraction)
        high = self.base_rate * (1.0 + self.change_fraction)
        rate = float(self._rng.uniform(low, high)) if high > low else low
        count = max(1, int(round(rate * self.epoch_seconds)))
        # Evenly spaced within the epoch, in [epoch_start, epoch_end).
        offsets = (np.arange(count, dtype=np.float64)
                   * (self._epoch_ticks / count))
        ts = self._epoch_start_ts + offsets.astype(np.int64)
        self._epoch_start_ts += self._epoch_ticks
        return ts

    # -- public ------------------------------------------------------------

    def generate(self, n_events: int) -> EventBatch:
        """Generate the next ``n_events`` events of this stream."""
        if n_events < 0:
            raise ConfigurationError(f"n_events must be >= 0, got {n_events}")
        if n_events == 0:
            return EventBatch.empty()
        chunks = []
        remaining = n_events
        while remaining > 0:
            if self._pending_ts is None:
                self._pending_ts = self._draw_epoch()
                self._pending_cursor = 0
            available = len(self._pending_ts) - self._pending_cursor
            take = min(available, remaining)
            chunks.append(
                self._pending_ts[self._pending_cursor:
                                 self._pending_cursor + take])
            self._pending_cursor += take
            remaining -= take
            if self._pending_cursor >= len(self._pending_ts):
                self._pending_ts = None
        ts = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        ids = np.arange(self._next_id, self._next_id + n_events,
                        dtype=np.int64)
        self._next_id += n_events
        values = np.asarray(self.value_source.values(n_events, self._rng),
                            dtype=np.float64)
        if values.shape != ids.shape:
            raise StreamError(
                f"value source produced shape {values.shape} for "
                f"{n_events} events")
        return EventBatch._view(ids, values, ts)

    def generate_seconds(self, seconds: float) -> EventBatch:
        """Generate all events with timestamps in the next ``seconds``."""
        end_ts = self._epoch_start_ts + int(round(
            seconds * TICKS_PER_SECOND))
        chunks = []
        # Emit any pending epoch tail first.
        if self._pending_ts is not None:
            chunks.append(self._pending_ts[self._pending_cursor:])
            self._pending_ts = None
        while self._epoch_start_ts < end_ts:
            chunks.append(self._draw_epoch())
        ts = (np.concatenate(chunks) if chunks
              else np.empty(0, dtype=np.int64))
        ts = ts[ts < end_ts]
        n = len(ts)
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        values = np.asarray(self.value_source.values(n, self._rng),
                            dtype=np.float64)
        if values.shape != ids.shape:
            raise StreamError(
                f"value source produced shape {values.shape} for "
                f"{n} events")
        return EventBatch._view(ids, values, ts)

    def batches(self, batch_size: int) -> Iterator[EventBatch]:
        """An infinite iterator of fixed-size batches."""
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be > 0, got {batch_size}")
        while True:
            yield self.generate(batch_size)


def replayed_offsets(n_streams: int, dataset_len: int,
                     seed: int = 0) -> np.ndarray:
    """Distinct replay start offsets for parallel streams.

    The paper simulates multiple parallel data streams "by starting each
    stream with a different offset in the dataset"; this helper picks the
    offsets.
    """
    if n_streams <= 0:
        raise ConfigurationError(f"n_streams must be > 0, got {n_streams}")
    if dataset_len < n_streams:
        raise ConfigurationError(
            f"dataset_len {dataset_len} < n_streams {n_streams}")
    rng = np.random.default_rng(seed)
    return rng.choice(dataset_len, size=n_streams, replace=False)
