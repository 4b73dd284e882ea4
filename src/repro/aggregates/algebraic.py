"""Algebraic aggregation functions: average, variance, standard deviation.

Algebraic functions "can be computed from results of distributive
aggregate functions, e.g. avg (as sum / count)" (Section 2.3).  Their
partials are fixed-size tuples of distributive components, so they remain
decomposable and Deco-friendly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.aggregates.base import (AggregateFunction, Decomposability,
                                   GrayKind, equal_width_rows)
from repro.streams.batch import EventBatch


class SumCount(NamedTuple):
    """Partial for avg: component sum and count."""

    total: float
    count: int


class Average(AggregateFunction):
    """Arithmetic mean, carried as (sum, count)."""

    name = "avg"
    gray_kind = GrayKind.ALGEBRAIC
    decomposability = Decomposability.DECOMPOSABLE

    def identity(self) -> SumCount:
        return SumCount(0.0, 0)

    def lift(self, batch: EventBatch) -> SumCount:
        if len(batch) == 0:
            return self.identity()
        return SumCount(float(batch.values.sum()), len(batch))

    def scalar_lift(self, batch: EventBatch) -> SumCount:
        total = 0.0
        count = 0
        for v in batch.values.tolist():
            total += v
            count += 1
        return SumCount(total, count)

    def lift_ranges(self, batch: EventBatch, starts: Sequence[int],
                    ends: Sequence[int]) -> list[Any]:
        rows = equal_width_rows(batch, starts, ends)
        if rows is None:
            return super().lift_ranges(batch, starts, ends)
        width = rows.shape[1]
        return [SumCount(float(v), width) for v in rows.sum(axis=1)]

    def combine(self, left: SumCount, right: SumCount) -> SumCount:
        return SumCount(left.total + right.total, left.count + right.count)

    def lower(self, partial: SumCount) -> float:
        if partial.count == 0:
            return math.nan
        return partial.total / partial.count


class Moments(NamedTuple):
    """Partial for variance: count, mean, and M2 (sum of squared
    deviations), combinable with Chan et al.'s parallel update."""

    count: int
    mean: float
    m2: float


class Variance(AggregateFunction):
    """Population variance via the numerically stable M2 recurrence."""

    name = "variance"
    gray_kind = GrayKind.ALGEBRAIC
    decomposability = Decomposability.DECOMPOSABLE

    def identity(self) -> Moments:
        return Moments(0, 0.0, 0.0)

    def lift(self, batch: EventBatch) -> Moments:
        n = len(batch)
        if n == 0:
            return self.identity()
        mean = float(np.mean(batch.values))
        m2 = float(np.sum((batch.values - mean) ** 2))
        return Moments(n, mean, m2)

    def combine(self, left: Moments, right: Moments) -> Moments:
        if left.count == 0:
            return right
        if right.count == 0:
            return left
        count = left.count + right.count
        delta = right.mean - left.mean
        mean = left.mean + delta * right.count / count
        m2 = (left.m2 + right.m2
              + delta * delta * left.count * right.count / count)
        return Moments(count, mean, m2)

    def lower(self, partial: Moments) -> float:
        if partial.count == 0:
            return math.nan
        return partial.m2 / partial.count


class StdDev(Variance):
    """Population standard deviation (sqrt of :class:`Variance`)."""

    name = "stddev"

    def lower(self, partial: Moments) -> float:
        variance = super().lower(partial)
        return math.sqrt(variance) if variance == variance else variance
