"""Registry mapping aggregation function names to implementations."""

from __future__ import annotations

from collections.abc import Callable

from repro.aggregates.algebraic import Average, StdDev, Variance
from repro.aggregates.base import AggregateFunction
from repro.aggregates.distributive import Count, Max, Min, Sum
from repro.aggregates.holistic import Median, Quantile
from repro.errors import AggregationError

#: The aggregation functions by name.
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
