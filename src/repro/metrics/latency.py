"""Processing-time latency (Section 5, Evaluation Metrics).

The paper measures latency "with processing-time rather than
event-time... from when the event arrives at the node to when the
result or partial result involving the event is produced", and notes
that because generators are co-located with local nodes, event time
equals arrival processing time — avoiding coordinated omission.

We measure, per global window, the time from when the window's *last*
(completing) event becomes available at its local node to when the root
emits the window's result.  Input is injected in batches, so the
completing event's availability is the injection time of the batch that
contains it; :func:`trigger_times` computes those exactly, making the
latency measurement batching-independent and identical across schemes.
"""

from __future__ import annotations


import numpy as np

from repro.core.records import RunResult
from repro.core.workload import Workload
from repro.errors import ConfigurationError
from repro.streams.event import ticks_to_seconds


def trigger_times(workload: Workload, batch_size: int) -> np.ndarray:
    """Per-window completion triggers (seconds of stream time).

    Window ``g`` is completable once every node has delivered its last
    contributing event; each event becomes available when its injection
    batch (of ``batch_size`` events) is delivered, i.e. at the batch's
    last timestamp.
    """
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}")
    triggers = np.zeros(workload.n_windows, dtype=np.float64)
    for g in range(workload.n_windows):
        t = 0.0
        for a in range(workload.n_nodes):
            start, end = workload.span(g, a)
            if end == start:
                continue
            stream = workload.streams[a]
            batch_idx = (end - 1) // batch_size
            batch_last = min(len(stream), (batch_idx + 1) * batch_size)
            t = max(t, ticks_to_seconds(int(stream.ts[batch_last - 1])))
        triggers[g] = t
    return triggers


#: Policies for windows a run never emitted (fault runs drop windows):
#: ``"error"`` refuses to compute a distribution at all, ``"exclude"``
#: measures survivors only (pair it with the dropped count from
#: :func:`dropped_windows`), ``"penalize"`` charges each dropped window
#: the time from its completion trigger to the end of the run — a lower
#: bound on its true latency that keeps tails honest.
MISSING_POLICIES = ("error", "exclude", "penalize")


def dropped_windows(result: RunResult, workload: Workload,
                    skip_bootstrap: int = 3) -> list[int]:
    """Steady-state window indices the run never emitted."""
    present = {o.index for o in result.outcomes}
    return sorted(set(range(skip_bootstrap, workload.n_windows))
                  - present)


def window_latencies(result: RunResult, workload: Workload,
                     batch_size: int, skip_bootstrap: int = 3,
                     missing: str = "error") -> np.ndarray:
    """Per-window result latency in seconds for a *paced* run.

    Windows with index below ``skip_bootstrap`` are excluded: Deco's
    initialization windows are centralized by design and would skew the
    steady-state distribution the paper plots.

    ``missing`` picks the dropped-window policy (see
    :data:`MISSING_POLICIES`).  The default ``"error"`` raises a
    :class:`ConfigurationError` naming the missing windows — a fault
    run that silently lost windows would otherwise report a
    distribution over survivors only, biasing the percentiles low.
    Callers measuring fault runs must opt into ``"exclude"`` or
    ``"penalize"`` explicitly (and should report the dropped count,
    :func:`dropped_windows`).
    """
    if missing not in MISSING_POLICIES:
        raise ConfigurationError(
            f"unknown missing-window policy {missing!r}; "
            f"expected one of {MISSING_POLICIES}")
    triggers = trigger_times(workload, batch_size)
    outcomes = sorted(result.outcomes, key=lambda o: o.index)
    steady = [o for o in outcomes if o.index >= skip_bootstrap]
    dropped = dropped_windows(result, workload, skip_bootstrap)
    if dropped and missing == "error":
        raise ConfigurationError(
            f"windows {dropped} missing from run outcomes; the "
            f"steady-state latency distribution would be biased "
            f"(pass missing='exclude' or 'penalize' to measure a "
            f"fault run)")
    latencies = {o.index: o.emit_time - triggers[o.index]
                 for o in steady}
    if missing == "penalize":
        for g in dropped:
            latencies[g] = (max(result.sim_time, triggers[g])
                            - triggers[g])
    if not latencies:
        raise ConfigurationError(
            f"no windows after skipping {skip_bootstrap} bootstrap "
            f"windows")
    return np.asarray([latencies[g] for g in sorted(latencies)])


def percentile_latency(result: RunResult, workload: Workload,
                       batch_size: int, q: float,
                       skip_bootstrap: int = 3,
                       missing: str = "error") -> float:
    """A latency percentile (``q`` in [0, 100]) in seconds."""
    return float(np.percentile(
        window_latencies(result, workload, batch_size, skip_bootstrap,
                         missing), q))
