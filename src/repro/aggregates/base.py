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

Decomposable functions also carry a *columnar kernel*: the same three
steps over many partials at once, a partial batch held as one ndarray
per partial field (:data:`Columns`).  Each kernel repeats its scalar
counterpart's float operations in the same order, so column ``i`` of
``combine_columns(a, b)`` has exactly the bits of ``combine(a_i, b_i)``
(tests hold the two equal bit for bit); this is what lets
:meth:`AggregateFunction.lift_ranges` and the multi-query engine's
flush evaluate thousands of partials in a few numpy passes.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.streams.batch import EventBatch

#: A batch of partials as parallel columns, one array per partial
#: field (``(total, count)`` for avg, ``(count, mean, m2)`` for
#: variance, one column for the distributive functions).
Columns = tuple[np.ndarray, ...]


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
        bound to it bit-for-bit.  Equal-width contiguous ranges of a
        decomposable function go through one :meth:`lift_rows` pass
        (one row-wise ndarray reduction instead of one call per range);
        anything else is lifted range by range.  The chunk-tree index
        uses this to build many leaves per append.
        """
        rows = (equal_width_rows(batch, starts, ends)
                if self.is_decomposable else None)
        if rows is None:
            return [self.lift(batch.slice_range(int(s), int(e)))
                    for s, e in zip(starts, ends, strict=True)]
        return self.partials(self.lift_rows(rows))

    # -- columnar kernel (decomposable functions only) ----------------------

    #: The partial's ``NamedTuple`` type when it has several fields;
    #: ``None`` for a one-column partial held as a plain scalar.
    partial_type: Any = None

    def lift_rows(self, rows: np.ndarray) -> Columns:
        """Partials of each row of a C-contiguous ``(n, width)`` value
        block, ``width >= 1``; row ``i`` equals ``lift`` of that row's
        events bit for bit."""
        raise NotImplementedError(f"{self.name} has no columnar kernel")

    def combine_columns(self, left: Columns, right: Columns) -> Columns:
        """Element-wise :meth:`combine` of two partial columns."""
        raise NotImplementedError(f"{self.name} has no columnar kernel")

    def lower_columns(self, partials: Columns) -> np.ndarray:
        """Element-wise :meth:`lower`, as a float64 array.  The default
        serves one-column partials that are their own result."""
        return np.asarray(partials[0], dtype=np.float64)

    def partials(self, columns: Columns) -> list[Any]:
        """The scalar partials (what :meth:`lift` returns) held in
        ``columns``, one per row."""
        fields = [column.tolist() for column in columns]
        if self.partial_type is None:
            return fields[0]
        return list(map(self.partial_type, *fields))

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

