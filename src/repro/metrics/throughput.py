"""Sustainable throughput (Section 5, Evaluation Metrics).

"We measure sustainable throughput.  In this setup, the system
processes incoming data without an ever-increasing backlog" [38].  In a
saturated run (input always available, backpressured at each node's
CPU), the drain rate *is* the sustainable rate: blocking flows,
correction recomputation, and CPU/link serialization all throttle it
exactly as they would throttle a real deployment's admissible input
rate.
"""

from __future__ import annotations


from repro.core.records import RunResult
from repro.errors import ConfigurationError


def sustainable_throughput(result: RunResult,
                           skip: int | None = None) -> float:
    """End-to-end sustainable throughput in events/second.

    Events of the steady-state windows divided by the (simulated) time
    they took.  Windows with *index* below ``skip`` are excluded as
    warm-up: the Deco schemes bootstrap their first two/three windows
    centrally by design, which is a transient the paper's long
    steady-state runs amortize away.  ``skip=None`` picks 3 when enough
    windows exist.

    Skipping is by window index, not list position: a fault run whose
    early windows never emitted must not silently discard steady-state
    windows instead.  The steady-state interval is anchored at the emit
    times of windows ``skip - 1`` and the last window, so any window
    missing from that range makes the interval meaningless — a
    :class:`ConfigurationError` names the missing windows.
    """
    if result.sim_time <= 0:
        raise ConfigurationError(
            "run has no emissions; cannot compute throughput")
    outcomes = sorted(result.outcomes, key=lambda o: o.index)
    if skip is None:
        skip = 3 if len(outcomes) > 6 else 0
    by_index = {o.index: o for o in outcomes}
    steady = [o for o in outcomes if o.index >= skip]
    if not steady:
        raise ConfigurationError(
            f"cannot skip {skip} of {len(outcomes)} windows")
    last = steady[-1].index
    if skip == 0:
        missing = sorted(set(range(last + 1)) - set(by_index))
        if missing:
            raise ConfigurationError(
                f"windows {missing} missing from run outcomes; "
                f"throughput over a gapped run is meaningless")
        return len(steady) * result.window_size / result.sim_time
    anchor = skip - 1
    missing = sorted(set(range(anchor, last + 1)) - set(by_index))
    if missing:
        raise ConfigurationError(
            f"windows {missing} missing from run outcomes; cannot "
            f"anchor the steady-state interval at window {anchor}")
    t0 = by_index[anchor].emit_time
    t1 = by_index[last].emit_time
    if t1 <= t0:
        raise ConfigurationError("degenerate steady-state interval")
    return len(steady) * result.window_size / (t1 - t0)

