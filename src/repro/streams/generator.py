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
``generate_seconds`` draws all of a stretch's rates (its
:class:`EpochPlan`) before its values, so the same stretch can also be
built a few epochs at a time: the workload cache writes spills that way.
"""

from __future__ import annotations

import itertools
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


def epoch_ts(start: int, count: int, epoch_ticks: int) -> np.ndarray:
    """Timestamps of ``count`` events spaced evenly over the epoch
    ``[start, start + epoch_ticks)``."""
    offsets = np.arange(count, dtype=np.float64) * (epoch_ticks / count)
    return start + offsets.astype(np.int64)


class EpochPlan:
    """A stretch of one stream, epoch by epoch, as its rate draws fix
    it: each epoch's start tick, drawn event ``count`` and the events
    ``kept`` before the stretch's end, with the stretch's first id.
    Timestamps and ids are rebuilt from these for any range of epochs
    (:meth:`ts`, :meth:`ids`); values are drawn separately.
    """

    def __init__(self, first_id: int, epoch_ticks: int,
                 starts: list[int], counts: list[int],
                 kept: list[int]) -> None:
        self.epoch_ticks = epoch_ticks
        self.starts = starts
        self.counts = counts
        self.kept = kept
        #: Id of each epoch's first event, and one past the last.
        self._first_ids = list(itertools.accumulate(kept,
                                                    initial=first_id))

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_events(self) -> int:
        return self._first_ids[-1] - self._first_ids[0]

    def ts(self, k0: int, k1: int) -> np.ndarray:
        """Timestamps of the kept events of epochs ``k0 .. k1 - 1``."""
        return np.concatenate([
            epoch_ts(self.starts[k], self.counts[k],
                     self.epoch_ticks)[:self.kept[k]]
            for k in range(k0, k1)])

    def ids(self, k0: int, k1: int) -> np.ndarray:
        """Ids of the kept events of epochs ``k0 .. k1 - 1``."""
        return np.arange(self._first_ids[k0], self._first_ids[k1],
                         dtype=np.int64)


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

    def _draw_count(self) -> int:
        """Events in the next epoch, at a freshly drawn rate."""
        low = self.base_rate * (1.0 - self.change_fraction)
        high = self.base_rate * (1.0 + self.change_fraction)
        rate = float(self._rng.uniform(low, high)) if high > low else low
        return max(1, int(round(rate * self.epoch_seconds)))

    def _draw_epoch(self) -> np.ndarray:
        """Timestamps of one full epoch at a freshly drawn rate."""
        ts = epoch_ts(self._epoch_start_ts, self._draw_count(),
                      self._epoch_ticks)
        self._epoch_start_ts += self._epoch_ticks
        return ts

    # -- public ------------------------------------------------------------

    def draw_values(self, n: int) -> np.ndarray:
        """The next ``n`` payload values.  Values come from the
        generator's RNG after the rates drawn so far, so for the
        built-in sources several draws give the bits of one."""
        values = np.asarray(self.value_source.values(n, self._rng),
                            dtype=np.float64)
        if values.shape != (n,):
            raise StreamError(
                f"value source produced shape {values.shape} for "
                f"{n} events")
        return values

    def plan_seconds(self, seconds: float) -> EpochPlan:
        """Draw the rates of the next ``seconds`` of stream and claim
        their ids, without building a column.

        The plan's epochs hold exactly the timestamps and ids that
        :meth:`generate_seconds` would return; their values are the
        next :meth:`draw_values`.  Starts at an epoch boundary, so no
        part-drawn epoch of :meth:`generate` may be pending.
        """
        if self._pending_ts is not None:
            raise StreamError(
                "plan_seconds needs an epoch boundary; generate() left "
                "part of an epoch pending")
        end_ts = self._epoch_start_ts + int(round(
            seconds * TICKS_PER_SECOND))
        starts, counts, kept = [], [], []
        while self._epoch_start_ts < end_ts:
            start, count = self._epoch_start_ts, self._draw_count()
            self._epoch_start_ts += self._epoch_ticks
            # The epoch's last timestamp, computed as ``epoch_ts`` does:
            # only an epoch that reaches ``end_ts`` is built to be cut.
            last = start + int((count - 1) * (self._epoch_ticks / count))
            starts.append(start)
            counts.append(count)
            kept.append(count if last < end_ts else int(np.searchsorted(
                epoch_ts(start, count, self._epoch_ticks), end_ts)))
        plan = EpochPlan(self._next_id, self._epoch_ticks, starts, counts,
                         kept)
        self._next_id += plan.n_events
        return plan

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
        return EventBatch._view(ids, self.draw_values(n_events), ts)

    def generate_seconds(self, seconds: float) -> EventBatch:
        """Generate all events with timestamps in the next ``seconds``."""
        end_ts = self._epoch_start_ts + int(round(
            seconds * TICKS_PER_SECOND))
        # Emit any pending epoch tail first.
        tail = (self._pending_ts[self._pending_cursor:]
                if self._pending_ts is not None
                else np.empty(0, dtype=np.int64))
        self._pending_ts = None
        tail = tail[tail < end_ts]
        first_id = self._next_id
        self._next_id += len(tail)
        plan = self.plan_seconds(seconds)
        ts = np.concatenate(
            [tail, *(plan.ts(k, k + 1) for k in range(len(plan)))])
        ids = np.arange(first_id, self._next_id, dtype=np.int64)
        return EventBatch._view(ids, self.draw_values(len(ts)), ts)


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
