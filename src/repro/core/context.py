"""Shared run context wiring a scheme's behaviours together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.query import Query
from repro.core.records import RunResult
from repro.core.workload import Workload
from repro.obs.tracer import NULL_TRACER
from repro.runtime.serialization import WireFormat

if TYPE_CHECKING:
    from repro.aggregates.base import AggregateFunction
    from repro.core.buffers import PositionBuffer
    from repro.core.multiquery import MultiQueryEngine


@dataclass
class SchemeContext:
    """Everything the root and local behaviours of one run share.

    The context carries the query, the workload (whose boundary table
    stands in for the paper's exact boundary-resolution mechanism — see
    :mod:`repro.core.workload`), the wire format, and the accumulating
    :class:`RunResult`.
    """

    query: Query
    workload: Workload
    result: RunResult
    fmt: WireFormat = WireFormat.BINARY
    #: Retransmission timeout (seconds) for the failure model of
    #: Section 4.3.4; ``None`` disables timeouts (reliable fabric).
    #: When set, blocked nodes re-send their last message after this
    #: long without progress, recovering from dropped messages and
    #: transient crashes.
    retransmit_timeout_s: float | None = None
    #: Observability sink for protocol-level events (predictions,
    #: corrections, retransmits, window emissions).  The runner keeps
    #: this in lock-step with ``sim.tracer``; behaviours guard every
    #: hook on ``tracer.enabled`` so the default costs nothing.
    tracer: object = NULL_TRACER
    #: Standing-query engine (:mod:`repro.core.multiquery`), attached
    #: by :func:`~repro.core.runner.make_context` when the config
    #: registers queries.  ``None`` for plain single-result runs — the
    #: engine never alters scheme behaviour, buffers, or backpressure;
    #: it observes each local's ingest stream.
    engine: MultiQueryEngine | None = None

    def new_buffer(self, fn: AggregateFunction | None = None,
                   base: int = 0) -> PositionBuffer:
        """Construct a scheme-owned :class:`PositionBuffer`.

        Root and local behaviours build their raw-event buffers through
        this one point so the whole run shares one buffer policy (and
        a test can substitute a reference lift for all of them).
        Scheme buffers are never shared with the multi-query engine's
        slice store — sharing them would couple standing queries into
        ``retained``-driven backpressure and change scheme results.
        """
        from repro.core.buffers import PositionBuffer
        return PositionBuffer(base, fn)

    @property
    def n_nodes(self) -> int:
        """Number of local nodes."""
        return self.workload.n_nodes

    @property
    def window_size(self) -> int:
        """The global window size ``l_global``."""
        return self.workload.window_size

    @property
    def n_windows(self) -> int:
        """How many global windows this run emits."""
        return self.workload.n_windows
