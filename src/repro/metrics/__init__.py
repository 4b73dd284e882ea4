"""Evaluation metrics: throughput, latency, network, correctness."""

from repro.metrics.correctness import (correctness, per_window_correctness,
                                       results_match, window_overlap)
from repro.metrics.latency import (dropped_windows, percentile_latency,
                                   trigger_times, window_latencies)
from repro.metrics.network import network_saving
from repro.metrics.report import format_si, format_table
from repro.metrics.throughput import sustainable_throughput

__all__ = [
    "sustainable_throughput",
    "percentile_latency",
    "window_latencies",
    "dropped_windows",
    "trigger_times",
    "network_saving",
    "correctness",
    "per_window_correctness",
    "window_overlap",
    "results_match",
    "format_si",
    "format_table",
]
