"""Reference checks: what a window result must equal.

An *op* is one expected window result.  A window that is missing,
carries the wrong value, or belongs to a run that raised is a failed
op; ``failed / attempted`` is the benchmark's ``failed_share``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.determinism import Fingerprint
from repro.core.records import RunResult
from repro.core.workload import Workload


def window_sums(workload: Workload) -> list[float]:
    """Ground-truth ``sum`` of every global window: a plain numpy sum
    over the workload's boundary-table spans, independent of every
    scheme and of the aggregation index."""
    return [
        float(sum(np.sum(workload.streams[a].values[
            slice(*workload.span(g, a))])
            for a in range(workload.n_nodes)))
        for g in range(workload.n_windows)]


def failed_against_sums(result: RunResult, sums: list[float]) -> int:
    """Windows of an exact scheme that are missing or off the sums."""
    by_index = {o.index: o.result for o in result.outcomes}
    return sum(
        1 for g, want in enumerate(sums)
        if g not in by_index
        or not math.isclose(by_index[g], want, rel_tol=1e-9,
                            abs_tol=1e-9))


def missing_windows(result: RunResult, n_windows: int) -> int:
    """Windows a (possibly inexact) scheme never emitted."""
    return n_windows - len({o.index for o in result.outcomes
                            if 0 <= o.index < n_windows})


def failed_against_oracle(result: RunResult, oracle: Fingerprint,
                          n_windows: int) -> int:
    """Serve windows differing from the simulator oracle in ``(index,
    result bits, spans)``; when only the run-level fingerprint (bytes,
    messages, counters) diverges, the whole run counts as failed."""
    fingerprint = Fingerprint.of(result)
    got = {w[0]: w[:3] for w in fingerprint.windows}
    failed = sum(1 for w in oracle.windows if got.get(w[0]) != w[:3])
    failed += max(0, n_windows - len(oracle.windows))
    if failed == 0 and fingerprint != oracle:
        return n_windows
    return failed
