"""Compact, picklable trace summaries.

Full event lists are too heavy to ship from every parallel sweep worker
back to the parent, so workers condense their :class:`~repro.obs.
tracer.RunTracer` into a :class:`TraceSummary`: event totals per kind,
the counter registry, and gauge highs.  Summaries merge associatively,
which is what lets a sweep present one fleet-wide view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.obs.tracer import RunTracer


@dataclass
class TraceSummary:
    """Per-run (or merged) trace rollup, cheap to pickle."""

    scheme: str = ""
    runs: int = 1
    events: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    counters: dict[tuple[str, str], float] = field(default_factory=dict)
    gauge_max: dict[tuple[str, str], float] = field(default_factory=dict)

    @classmethod
    def from_tracer(cls, tracer: RunTracer,
                    scheme: str = "") -> "TraceSummary":
        """Condense one run's tracer."""
        return cls(
            scheme=scheme or str(tracer.meta.get("scheme", "")),
            events=len(tracer.events),
            by_kind=tracer.counts_by_kind(),
            counters=dict(tracer.counters),
            gauge_max={key: high
                       for key, (_, high) in tracer.gauges.items()})

    def merge(self, other: "TraceSummary") -> "TraceSummary":
        """Associative combination of two summaries (new object)."""
        by_kind = dict(self.by_kind)
        for kind, n in other.by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauge_max = dict(self.gauge_max)
        for key, value in other.gauge_max.items():
            gauge_max[key] = max(gauge_max.get(key, value), value)
        schemes = {s for s in (self.scheme, other.scheme) if s}
        return TraceSummary(
            scheme="+".join(sorted(schemes)),
            runs=self.runs + other.runs,
            events=self.events + other.events, by_kind=by_kind,
            counters=counters, gauge_max=gauge_max)


def merge_summaries(
        summaries: Iterable[TraceSummary | None]
) -> TraceSummary | None:
    """Merge a sweep's per-worker summaries (ignoring untraced runs).

    Returns ``None`` when nothing was traced.
    """
    merged: TraceSummary | None = None
    for summary in summaries:
        if summary is None:
            continue
        merged = summary if merged is None else merged.merge(summary)
    return merged

