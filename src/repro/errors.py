"""Exception hierarchy for the Deco reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A query, topology, or experiment was configured inconsistently."""


class StreamError(ReproError):
    """A data stream violated its contract (e.g. non-monotonic timestamps)."""


class WindowError(ReproError):
    """A window operation was used outside its valid state."""


class AggregationError(ReproError):
    """An aggregation function was applied to an unsupported input."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class ServeError(ReproError):
    """The serve runtime (real node processes over TCP) failed: a node
    process died, a connection could not be established, or the ops
    protocol was violated."""

