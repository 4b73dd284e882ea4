"""The reference range lift the index is held to.

:func:`fold_lift` computes one window's partial with
:func:`repro.core.agg_index.fold_windows` over the buffer's values
alone: the same canonical decomposition as
:class:`~repro.core.agg_index.RangeAggregateIndex`, written
independently (columnar, levels built bottom-up, nothing held between
calls).  :class:`ReferenceBuffer` is a :class:`PositionBuffer` whose
every ``lift_range`` goes through it, so a whole run can be replayed
with no index read.  ``tests/test_agg_index.py`` and
``benchmarks/bench_lift_index.py`` compare the index against it bit
for bit.
"""

from typing import Any

import numpy as np

from repro.aggregates.base import AggregateFunction
from repro.core.agg_index import fold_windows
from repro.core.buffers import PositionBuffer


def fold_lift(fn: AggregateFunction, values: np.ndarray, start: int,
              end: int, chunk_size: int) -> Any:
    """Partial of ``[start, end)`` from ``values`` (the events at
    ``start, start + 1, ...``) through the columnar fold."""
    if end <= start:
        return fn.identity()
    partials, _, _ = fold_windows(
        fn, values, start, np.array([start], dtype=np.int64),
        np.array([end], dtype=np.int64), chunk_size)
    return fn.partials(partials)[0]


class ReferenceBuffer(PositionBuffer):
    """A buffer whose decomposable lifts bypass its index: each one is
    :func:`fold_lift` over :meth:`get_values` (holistic functions keep
    the direct lift, which has no index to bypass)."""

    #: Lifts answered by the fold (so a test can see it was reached).
    folds = 0

    def lift_range(self, start: int, end: int) -> Any:
        index = self.index
        if index is None:
            return super().lift_range(start, end)
        self.folds += 1
        return fold_lift(self.fn, self.get_values(start, end), start,
                         end, index.chunk_size)
