"""Query specification for the Deco pipeline."""

from __future__ import annotations

import hashlib

from dataclasses import astuple, dataclass

from typing import Any

from repro.aggregates.base import AggregateFunction
from repro.aggregates.registry import get_aggregate
from repro.errors import ConfigurationError
from repro.windows.base import SlidingCountWindow, TumblingCountWindow


@dataclass(eq=False)
class Query:
    """A count-based window aggregation query.

    Args:
        window: A tumbling or sliding count window.  Deco's
            decentralized schemes target tumbling count windows; the
            multi-query engine also serves sliding ones.
        aggregate: An :class:`AggregateFunction` or a registry name
            (e.g. ``"sum"``).
        delta_m: The paper's ``m`` parameter — how many past deltas are
            averaged; controls how aggressively Deco adapts
            (Section 4.2.2).
        min_delta: Optional floor on the smoothed delta.
        predictor: Prediction strategy name (``last-value`` is the
            paper's; others exist for ablations).
    """

    window: TumblingCountWindow | SlidingCountWindow
    aggregate: str | AggregateFunction = "sum"
    delta_m: int = 1
    min_delta: int = 0
    predictor: str = "last-value"

    def __post_init__(self) -> None:
        window: object = self.window  # callers may pass anything
        if not isinstance(window, (TumblingCountWindow, SlidingCountWindow)):
            raise ConfigurationError(
                "a query needs a tumbling or sliding count window; got "
                f"{type(window).__name__}")
        window.validate()
        if isinstance(self.aggregate, str):
            self.aggregate = get_aggregate(self.aggregate)
        if self.delta_m < 1:
            raise ConfigurationError(
                f"delta_m must be >= 1, got {self.delta_m}")
        if self.min_delta < 0:
            raise ConfigurationError(
                f"min_delta must be >= 0, got {self.min_delta}")

    # -- identity ----------------------------------------------------------

    def canonical(self) -> tuple[Any, ...]:
        """Content tuple identifying this query.

        ``__post_init__`` resolves ``aggregate`` from a registry name to
        an instance, so two specs built from ``"sum"`` and
        ``get_aggregate("sum")`` hold different objects; the canonical
        form maps both back to the registry name so equal specs compare,
        hash, and dedup identically.
        """
        agg = self.aggregate
        agg_name = agg.name if isinstance(agg, AggregateFunction) else agg
        return (type(self.window).__name__, astuple(self.window),
                agg_name, self.delta_m, self.min_delta, self.predictor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    @property
    def query_key(self) -> str:
        """Stable content-derived key (registry dedup, trace labels)."""
        payload = repr(self.canonical()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:12]

    @property
    def label(self) -> str:
        """Human-readable spec label, e.g. ``sum:1000`` or
        ``avg:1000:250`` — the same shape :func:`parse_query_spec`
        accepts for count windows."""
        agg = self.aggregate
        agg_name = agg.name if isinstance(agg, AggregateFunction) else agg
        win = self.window
        if isinstance(win, SlidingCountWindow):
            return f"{agg_name}:{win.length}:{win.step}"
        return f"{agg_name}:{win.length}"

    @property
    def window_size(self) -> int:
        """The global count window size ``l_global``."""
        if not isinstance(self.window, TumblingCountWindow):
            raise ConfigurationError(
                "decentralized schemes require a tumbling count window; "
                f"got {type(self.window).__name__}")
        return self.window.length

    @property
    def decomposable(self) -> bool:
        """Whether partial aggregation on local nodes is possible.

        Non-decomposable (holistic) functions force centralized
        aggregation (paper footnote 2).
        """
        return self.aggregate.is_decomposable


def tumbling_count_query(
        window_size: int, aggregate: str | AggregateFunction = "sum",
        **kwargs: Any) -> Query:
    """Convenience constructor for the evaluation's standard query."""
    return Query(window=TumblingCountWindow(window_size),
                 aggregate=aggregate, **kwargs)


def parse_query_spec(spec: str) -> Query:
    """Parse an ``agg:length[:step]`` spec into a count-window query.

    ``step == length`` (or omitted) yields a tumbling window; a smaller
    step yields a sliding window.  This is the string form accepted by
    ``RunConfig.queries`` and the CLI ``--queries`` flag, and emitted by
    :attr:`Query.label`.
    """
    parts = spec.strip().split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        raise ConfigurationError(
            f"query spec must be 'agg:length[:step]', got {spec!r}")
    try:
        length = int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else length
    except ValueError as exc:
        raise ConfigurationError(
            f"query spec has non-integer window in {spec!r}") from exc
    window: TumblingCountWindow | SlidingCountWindow = (
        TumblingCountWindow(length) if step == length
        else SlidingCountWindow(length, step))
    return Query(window=window, aggregate=parts[0])
