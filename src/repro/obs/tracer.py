"""Tracers: the recording half of the observability layer.

Two implementations share one duck-typed interface:

* :data:`NULL_TRACER` — the process-wide no-op default.  Every hook in
  the simulator guards itself with ``if tracer.enabled:``, so an
  untraced run pays exactly one attribute load + branch per *message*
  (never per event) and allocates nothing.  Untraced results are
  bit-identical to traced ones because tracing only observes — it never
  schedules, draws randomness, or mutates simulation state.
* :class:`RunTracer` — records :class:`~repro.obs.events.TraceEvent`
  objects into a flat list and accumulates named counters/gauges scoped
  per node or per link.  One instance covers one run.

The counter registry is deliberately primitive — ``(name, scope)`` keys
in a dict — because everything richer (per-link tables, per-node rates,
Chrome counter tracks) is derived at export time, off the hot path.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import TraceEvent

#: Scope used for run-global counters.
GLOBAL_SCOPE = ""

class NullTracer:
    """The zero-overhead default tracer: records nothing.

    Hooks must check :attr:`enabled` before building event payloads;
    the methods exist (as no-ops) so unguarded calls stay safe.
    """

    __slots__ = ()
    enabled = False

    def event(self, kind: str, time: float, node: str,
              dur: float = 0.0, **data: Any) -> None:
        """No-op."""

    def inc(self, name: str, scope: str = GLOBAL_SCOPE,
            n: float = 1) -> None:
        """No-op."""

    def gauge(self, name: str, scope: str, value: float) -> None:
        """No-op."""


#: The shared no-op tracer every simulator starts with.
NULL_TRACER = NullTracer()


class RunTracer:
    """Records one run's events, counters, and gauges in memory.

    Attributes:
        events: Recorded events in simulation-execution order (which is
            nondecreasing in record time, though ``cpu`` spans may start
            after later-recorded instants — exporters sort).
        counters: ``(name, scope) -> value`` accumulators.
        gauges: ``(name, scope) -> (last, max)`` samples.
    """

    __slots__ = ("events", "counters", "gauges", "meta")
    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.gauges: dict[tuple[str, str], tuple[float, float]] = {}
        #: Run identification filled by the runner (scheme, seed, ...).
        self.meta: dict[str, Any] = {}

    # -- recording ---------------------------------------------------------

    def event(self, kind: str, time: float, node: str,
              dur: float = 0.0, **data: Any) -> None:
        """Record one event (see :mod:`repro.obs.events` for kinds)."""
        self.events.append(TraceEvent(kind, time, node, dur, data))

    def inc(self, name: str, scope: str = GLOBAL_SCOPE,
            n: float = 1) -> None:
        """Add ``n`` to the ``(name, scope)`` counter."""
        key = (name, scope)
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, name: str, scope: str, value: float) -> None:
        """Sample a gauge: keeps the last and the max value."""
        key = (name, scope)
        _, high = self.gauges.get(key, (value, value))
        self.gauges[key] = (value, max(high, value))

    # -- inspection --------------------------------------------------------

    def counts_by_kind(self) -> dict[str, int]:
        """Event totals per kind, for summaries and assertions."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def counter(self, name: str, scope: str = GLOBAL_SCOPE) -> float:
        """One counter's value (0 when never incremented)."""
        return self.counters.get((name, scope), 0)

    def counters_named(self, name: str) -> dict[str, float]:
        """All scopes of one counter name, as ``scope -> value``."""
        return {scope: value for (n, scope), value
                in self.counters.items() if n == name}

    def nodes(self) -> list[str]:
        """Node names that recorded at least one event (sorted, root
        first)."""
        names = {event.node for event in self.events}
        return sorted(names, key=lambda n: (n != "root", n))

    def events_of(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in record order."""
        return [event for event in self.events if event.kind == kind]

