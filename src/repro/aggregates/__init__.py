"""Aggregation substrate: lift/combine/lower functions and classifications."""

from repro.aggregates.algebraic import (Average, Moments, StdDev, SumCount,
                                        Variance)
from repro.aggregates.base import (AggregateFunction, Decomposability,
                                   GrayKind)
from repro.aggregates.distributive import Count, Max, Min, Sum
from repro.aggregates.holistic import Median, Quantile
from repro.aggregates.registry import available_aggregates, get_aggregate

__all__ = [
    "AggregateFunction",
    "GrayKind",
    "Decomposability",
    "Sum",
    "Count",
    "Min",
    "Max",
    "Average",
    "Variance",
    "StdDev",
    "SumCount",
    "Moments",
    "Median",
    "Quantile",
    "get_aggregate",
    "available_aggregates",
]
