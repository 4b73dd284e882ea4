"""Stable timestamp merge of per-source streams.

The global count-based window of size ``L`` comprises the first ``L``
events of the merged stream in stable timestamp order (Section 3: windows
use a stable sort; on ties at the window edge the first event wins).
:func:`repro.core.workload.build_workload` cuts the ground-truth window
boundaries of this order by counting, without materialising it; the
merge itself feeds a node with several sources and is the tests' oracle
for that cut.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, StreamError
from repro.streams.batch import EventBatch


def require_ts_sorted(batches: Sequence[EventBatch]) -> None:
    """Raise :class:`StreamError` unless every batch is timestamp-sorted."""
    for i, b in enumerate(batches):
        if not b.is_ts_sorted():
            raise StreamError(
                f"input batch {i} is not timestamp-sorted; per-source "
                f"streams must be in order")


def merge_batches(
        batches: Sequence[EventBatch]) -> tuple[EventBatch, np.ndarray]:
    """Stably merge per-source batches by timestamp.

    Returns the merged batch and a parallel ``source`` array giving, for
    each merged position, the index of the contributing input batch.
    Ties are broken by input order (stable), matching the paper's window
    operator model.
    """
    if not batches:
        raise ConfigurationError("merge_batches needs at least one batch")
    require_ts_sorted(batches)
    combined = EventBatch.concat(list(batches))
    source = np.concatenate([
        np.full(len(b), i, dtype=np.int64) for i, b in enumerate(batches)
    ]) if len(combined) else np.empty(0, dtype=np.int64)
    order = np.argsort(combined.ts, kind="stable")
    merged = EventBatch._view(combined.ids[order],
                              combined.values[order],
                              combined.ts[order])
    return merged, source[order]

