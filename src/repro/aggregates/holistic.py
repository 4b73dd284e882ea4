"""Holistic aggregation functions: median and quantiles.

Holistic functions "cannot be calculated by partial aggregation"
(Section 2.3); their partial is the full multiset of values.  They are
marked non-decomposable so the Deco query planner routes them through
centralized aggregation (paper footnote 2).  The lift/combine/lower form
still works — partials are value arrays and combine concatenates — which
is exactly why shipping them is as expensive as shipping raw events.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregates.base import (AggregateFunction, Decomposability,
                                   GrayKind)
from repro.errors import AggregationError
from repro.streams.batch import EventBatch


class Quantile(AggregateFunction):
    """Exact q-quantile over the window's values."""

    gray_kind = GrayKind.HOLISTIC
    decomposability = Decomposability.NON_DECOMPOSABLE

    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise AggregationError(f"quantile q must be in [0, 1], got {q}")
        self.q = float(q)
        self.name = f"quantile({self.q:g})"

    def identity(self) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def lift(self, batch: EventBatch) -> np.ndarray:
        return np.array(batch.values, dtype=np.float64, copy=True)

    def combine(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if len(left) == 0:
            return right
        if len(right) == 0:
            return left
        return np.concatenate([left, right])

    def lower(self, partial: np.ndarray) -> float:
        if len(partial) == 0:
            return math.nan
        return float(np.quantile(partial, self.q))

    def __repr__(self) -> str:
        return f"Quantile(q={self.q:g})"


class Median(Quantile):
    """Exact median (the 0.5 quantile)."""

    def __init__(self):
        super().__init__(0.5)
        self.name = "median"

    def __repr__(self) -> str:
        return "Median()"
