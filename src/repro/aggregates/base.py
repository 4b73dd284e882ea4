"""Aggregation function framework.

Follows the two classifications the paper builds on (Section 2.3):

* Gray et al. (Data Cube): *distributive* (sum, count, min), *algebraic*
  (avg = sum/count), *holistic* (median, quantiles).
* Jesus et al.: *(self-)decomposable* vs *non-decomposable*.  Decomposable
  functions can split windows into slices, partially aggregate the slices,
  and combine partials — the property every Deco scheme relies on.  For
  non-decomposable functions Deco "performs centralized aggregation"
  (footnote 2), which :mod:`repro.core` honours.

Every function is expressed in lift / combine / lower form:
``lower(combine(lift(s1), lift(s2), ...)) == aggregate(s1 + s2 + ...)``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.streams.batch import EventBatch


def equal_width_rows(batch: EventBatch, starts: Sequence[int],
                     ends: Sequence[int]) -> np.ndarray | None:
    """The batch's values as ``(n_ranges, width)`` rows, when possible.

    Returns a 2-d value block when the ranges are equal-width and
    contiguous (the shape chunk-tree leaf builds produce), else
    ``None``.  Row-wise ndarray reductions over this block are
    bit-identical to reducing each slice separately — numpy's pairwise
    summation visits each row's elements in the same order either way —
    which is what lets :meth:`AggregateFunction.lift_ranges` vectorize
    without breaking the index's bit-identity contract.
    """
    n = len(starts)
    if n == 0 or len(ends) != n:
        return None
    width = ends[0] - starts[0]
    if width <= 0:
        return None
    for i in range(n):
        if ends[i] - starts[i] != width:
            return None
        if i and starts[i] != ends[i - 1]:
            return None
    return batch.values[starts[0]:ends[n - 1]].reshape(n, width)


class GrayKind(enum.Enum):
    """Gray et al.'s aggregation classes."""

    DISTRIBUTIVE = "distributive"
    ALGEBRAIC = "algebraic"
    HOLISTIC = "holistic"


class Decomposability(enum.Enum):
    """Jesus et al.'s decomposability classes."""

    SELF_DECOMPOSABLE = "self-decomposable"
    DECOMPOSABLE = "decomposable"
    NON_DECOMPOSABLE = "non-decomposable"


class AggregateFunction(ABC):
    """A window aggregation function in lift/combine/lower form.

    Partial aggregates are opaque to callers; their concrete type is per
    function (a float for sum, a ``(sum, count)`` pair for avg, a value
    array for holistic functions).
    """

    #: Human-readable function name, also the registry key.
    name: str = "abstract"
    gray_kind: GrayKind = GrayKind.DISTRIBUTIVE
    decomposability: Decomposability = Decomposability.SELF_DECOMPOSABLE

    @property
    def is_decomposable(self) -> bool:
        """Whether partial aggregation on slices is allowed."""
        return self.decomposability is not Decomposability.NON_DECOMPOSABLE

    @abstractmethod
    def identity(self) -> Any:
        """The neutral partial (aggregate of zero events)."""

    @abstractmethod
    def lift(self, batch: EventBatch) -> Any:
        """Partial aggregate of one batch of events (vectorized)."""

    @abstractmethod
    def combine(self, left: Any, right: Any) -> Any:
        """Merge two partial aggregates."""

    @abstractmethod
    def lower(self, partial: Any) -> float:
        """Extract the final result from a partial aggregate."""

    def scalar_lift(self, batch: EventBatch) -> Any:
        """Reference lift: fold the batch one event at a time.

        The verification oracle for the vectorized :meth:`lift`
        kernels — the test suite asserts both paths agree on randomized
        batches.  Subclasses with vectorized lifts override this with a
        plain-Python loop; the default folds singleton lifts.
        """
        acc = self.identity()
        for i in range(len(batch)):
            acc = self.combine(acc, self.lift(batch[i:i + 1]))
        return acc

    def lift_ranges(self, batch: EventBatch, starts: Sequence[int],
                    ends: Sequence[int]) -> list[Any]:
        """Partial aggregates of several ``[start, end)`` slices.

        Equivalent to ``[lift(batch.slice_range(s, e)) ...]`` — and
        bound to it bit-for-bit: overrides may batch the reductions
        (one row-wise ndarray reduction instead of one call per range)
        but must return exactly what the per-range lifts would.  The
        chunk-tree index uses this to build many leaves per append.
        """
        return [self.lift(batch.slice_range(int(s), int(e)))
                for s, e in zip(starts, ends, strict=True)]

    # -- conveniences ------------------------------------------------------

    def combine_all(self, partials: Iterable[Any]) -> Any:
        """Fold :meth:`combine` over many partials."""
        acc = self.identity()
        for partial in partials:
            acc = self.combine(acc, partial)
        return acc

    def combine_many(self, partials: Sequence[Any]) -> Any:
        """Left-to-right fold of :meth:`combine` without seeding the
        identity.

        The range-aggregation index uses this to keep the combine
        association a pure function of the decomposition: seeding with
        :meth:`identity` would insert one extra floating-point
        operation whose bit-effect (e.g. ``0.0 + -0.0``) depends on
        the first partial.  Empty input returns :meth:`identity`.
        """
        if not partials:
            return self.identity()
        acc = partials[0]
        for partial in partials[1:]:
            acc = self.combine(acc, partial)
        return acc

    def aggregate(self, batch: EventBatch) -> float:
        """Directly aggregate one batch (the centralized code path)."""
        return self.lower(self.lift(batch))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

