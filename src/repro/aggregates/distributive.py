"""Distributive aggregation functions: sum, count, min, max.

Distributive functions "can perform partial aggregation on a sub-part of
a dataset and then merge partial results" (Section 2.3); their partial is
a single scalar.

The ``lift`` kernels are the per-batch hot path of every scheme (each
injected source batch is lifted once); they call the ndarray reduction
methods directly — no intermediate allocation, no ``np.sum`` dispatch —
and each has a ``scalar_lift`` plain-Python reference the test suite
checks them against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregates.base import (AggregateFunction, Columns,
                                   Decomposability, GrayKind)
from repro.streams.batch import EventBatch


class Sum(AggregateFunction):
    """Sum of event values — the function used throughout the evaluation."""

    name = "sum"
    gray_kind = GrayKind.DISTRIBUTIVE
    decomposability = Decomposability.SELF_DECOMPOSABLE

    def identity(self) -> float:
        return 0.0

    def lift(self, batch: EventBatch) -> float:
        return float(batch.values.sum()) if len(batch) else 0.0

    def scalar_lift(self, batch: EventBatch) -> float:
        total = 0.0
        for v in batch.values.tolist():
            total += v
        return total

    def lift_rows(self, rows: np.ndarray) -> Columns:
        # Row-wise pairwise summation visits each row's elements in
        # the order a 1-d sum does (see equal_width_rows).
        return (rows.sum(axis=1),)

    def combine_columns(self, left: Columns, right: Columns) -> Columns:
        return (left[0] + right[0],)

    def combine(self, left: float, right: float) -> float:
        return left + right

    def lower(self, partial: float) -> float:
        return partial


class Count(AggregateFunction):
    """Number of events."""

    name = "count"
    gray_kind = GrayKind.DISTRIBUTIVE
    decomposability = Decomposability.SELF_DECOMPOSABLE

    def identity(self) -> int:
        return 0

    def lift(self, batch: EventBatch) -> int:
        return len(batch)

    def scalar_lift(self, batch: EventBatch) -> int:
        n = 0
        for _ in batch.ids.tolist():
            n += 1
        return n

    def lift_rows(self, rows: np.ndarray) -> Columns:
        return (np.full(rows.shape[0], rows.shape[1], dtype=np.int64),)

    def combine_columns(self, left: Columns, right: Columns) -> Columns:
        return (left[0] + right[0],)

    def combine(self, left: int, right: int) -> int:
        return left + right

    def lower(self, partial: int) -> float:
        return float(partial)


class Min(AggregateFunction):
    """Minimum event value; the identity is +inf."""

    name = "min"
    gray_kind = GrayKind.DISTRIBUTIVE
    decomposability = Decomposability.SELF_DECOMPOSABLE

    def identity(self) -> float:
        return math.inf

    def lift(self, batch: EventBatch) -> float:
        return float(batch.values.min()) if len(batch) else math.inf

    def scalar_lift(self, batch: EventBatch) -> float:
        best = math.inf
        for v in batch.values.tolist():
            if v < best:
                best = v
        return best

    def lift_rows(self, rows: np.ndarray) -> Columns:
        return (rows.min(axis=1),)

    def combine_columns(self, left: Columns, right: Columns) -> Columns:
        # np.where, not np.minimum: the scalar combine keeps ``left``
        # on ties and NaN comparisons, which np.minimum does not.
        return (np.where(left[0] <= right[0], left[0], right[0]),)

    def combine(self, left: float, right: float) -> float:
        return left if left <= right else right

    def lower(self, partial: float) -> float:
        return partial


class Max(AggregateFunction):
    """Maximum event value; the identity is -inf."""

    name = "max"
    gray_kind = GrayKind.DISTRIBUTIVE
    decomposability = Decomposability.SELF_DECOMPOSABLE

    def identity(self) -> float:
        return -math.inf

    def lift(self, batch: EventBatch) -> float:
        return float(batch.values.max()) if len(batch) else -math.inf

    def scalar_lift(self, batch: EventBatch) -> float:
        best = -math.inf
        for v in batch.values.tolist():
            if v > best:
                best = v
        return best

    def lift_rows(self, rows: np.ndarray) -> Columns:
        return (rows.max(axis=1),)

    def combine_columns(self, left: Columns, right: Columns) -> Columns:
        # np.where, not np.maximum (see Min.combine_columns).
        return (np.where(left[0] >= right[0], left[0], right[0]),)

    def combine(self, left: float, right: float) -> float:
        return left if left >= right else right

    def lower(self, partial: float) -> float:
        return partial
