"""Registry mapping aggregation function names to implementations."""

from __future__ import annotations

from collections.abc import Callable

from repro.aggregates.algebraic import Average, StdDev, Variance
from repro.aggregates.base import AggregateFunction
from repro.aggregates.distributive import Count, Max, Min, Sum
from repro.aggregates.holistic import Median, Quantile
from repro.errors import AggregationError

# Import-time registry: run code only reads it; `register` is a
# user-facing extension point called before any run starts.
_FACTORIES: dict[str, Callable[[], AggregateFunction]] = {
    "sum": Sum,
    "count": Count,
    "min": Min,
    "max": Max,
    "avg": Average,
    "variance": Variance,
    "stddev": StdDev,
    "median": Median,
}


def register(name: str,
             factory: Callable[[], AggregateFunction]) -> None:
    """Register a user-defined aggregation function under ``name``."""
    if name in _FACTORIES:
        raise AggregationError(f"aggregate {name!r} is already registered")
    _FACTORIES[name] = factory


def get_aggregate(name: str) -> AggregateFunction:
    """Instantiate the aggregation function registered under ``name``.

    ``quantile(<q>)`` is recognised specially, e.g. ``quantile(0.9)``.
    """
    if name.startswith("quantile(") and name.endswith(")"):
        try:
            q = float(name[len("quantile("):-1])
        except ValueError:
            raise AggregationError(
                f"malformed quantile spec {name!r}") from None
        return Quantile(q)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise AggregationError(
            f"unknown aggregate {name!r}; "
            f"known: {available_aggregates()}") from None


def available_aggregates() -> list[str]:
    """Names of all registered aggregation functions."""
    return sorted(_FACTORIES)
