"""Scheme registry and run configuration.

This module owns the *what* of a run — the registered schemes, the
:class:`RunConfig` parameter set, and the shared context construction —
while the *how* lives behind the runtime driver interface
(:mod:`repro.runtime`):

* :func:`repro.runtime.driver.run_scheme_simulated` executes a config
  on the discrete-event simulator (the deterministic oracle), and
* :mod:`repro.serve` executes the same config over real node processes
  speaking the binary wire codec on TCP.

:func:`run_scheme` (the public entry used by the API, the examples, and
every benchmark) dispatches to the simulator driver; the builder
helpers (``build_run``, ``inject_sources``, ``run_simulation``, ...)
live in :mod:`repro.runtime.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable

from repro.core.context import SchemeContext
from repro.core.query import tumbling_count_query
from repro.core.records import RunResult
from repro.core.workload import Workload, WorkloadSpec, default_cache
from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER, RunTracer
from repro.runtime.api import DEFAULT_LATENCY_S, ETHERNET_25G
from repro.runtime.node import INTEL_XEON, NodeProfile
from repro.runtime.serialization import WireFormat


@dataclass(frozen=True)
class SchemeSpec:
    """How to instantiate one scheme's behaviours."""

    name: str
    root_cls: type
    local_cls: type
    fmt: WireFormat = WireFormat.BINARY
    #: Optional transform applied to node profiles (e.g. Disco's
    #: single-thread restriction).
    profile_transform: Callable[[NodeProfile],
                                         NodeProfile] | None = None
    #: Whether the scheme needs a local-to-local mesh (Deco_monlocal).
    needs_peer_mesh: bool = False


# Import-time registry: schemes register when their package imports;
# run code only reads it, so workers cannot diverge.
_SCHEMES: dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec) -> SchemeSpec:
    """Register a scheme for :func:`run_scheme` lookup by name."""
    if spec.name in _SCHEMES:
        raise ConfigurationError(
            f"scheme {spec.name!r} is already registered")
    _SCHEMES[spec.name] = spec
    return spec


def available_schemes() -> list[str]:
    """Names of all registered schemes (the built-in ones included)."""
    import repro.baselines  # noqa: F401 -- registers baselines
    return sorted(_SCHEMES)


def _central_classes() -> tuple[type, type]:
    """The Central behaviours (imported lazily: baselines depend on
    core)."""
    from repro.baselines.central import CentralLocal, CentralRoot
    return CentralRoot, CentralLocal


def get_scheme(name: str) -> SchemeSpec:
    """Look up a registered scheme.

    Built-in schemes register on package import; looking one up before
    its package was imported triggers the import (the Deco schemes
    register with this module's own package, :mod:`repro.core`).
    """
    if name not in _SCHEMES:
        import repro.baselines  # noqa: F401 -- registers baselines
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {name!r}; "
            f"known: {sorted(_SCHEMES)}") from None


@dataclass
class RunConfig:
    """Parameters of one experiment run."""

    scheme: str
    n_nodes: int = 2
    window_size: int = 10_000
    n_windows: int = 10
    rate_per_node: float = 100_000.0
    rate_change: float = 0.01
    epoch_seconds: float = 1.0
    #: Concurrent paced source clients per local node: the feeder
    #: splits each node's stream into this many strided substreams,
    #: each batching/delivering on its own timestamps (many-client load
    #: generation; see :func:`repro.runtime.feeder.inject_stream`).
    #: This does not change the generated workload — only the
    #: injection schedule — so it is not part of :meth:`workload_key`.
    #: Paced runs only.
    sources_per_node: int = 1
    aggregate: str = "sum"
    delta_m: int = 1
    min_delta: int = 0
    seed: int = 0
    #: True: all input available at t=0 (sustainable-throughput mode).
    #: False: events arrive at their timestamps (latency mode).
    saturated: bool = True
    local_profile: NodeProfile = INTEL_XEON
    root_profile: NodeProfile = INTEL_XEON
    bandwidth: float = ETHERNET_25G
    latency: float = DEFAULT_LATENCY_S
    #: Source injection batch size (events); default ~1/16 of the mean
    #: local window so batching granularity stays below buffer sizes.
    batch_size: int | None = None
    #: Extra stream length factor beyond the measured windows (None =
    #: auto).  Raise for workloads where a scheme drifts far past the
    #: last boundary (Approx at large rate changes).
    margin: float | None = None
    #: Retransmission timeout for the Section 4.3.4 failure model;
    #: None disables timeouts (reliable fabric).
    retransmit_timeout_s: float | None = None
    #: Record a structured trace of this run (see :mod:`repro.obs`).
    #: A plain bool so configs stay JSON-able: its reader is the serve
    #: worker, which the coordinator tells to trace, and which builds
    #: its own tracer and ships the events back in FINAL.  Not part of
    #: :meth:`workload_key`: tracing never changes the workload.
    trace: bool = False
    #: Determinism contract: permutes the kernel's same-time event
    #: ordering (see :class:`~repro.sim.kernel.Simulator`).  Results
    #: MUST be bit-identical for every salt; the schedule-determinism
    #: harness (:mod:`repro.analysis.determinism`) runs configs under
    #: permuted salts and fails on any divergence.  Not part of
    #: :meth:`workload_key`: the workload is generated off-simulator.
    tiebreak_salt: int = 0
    #: Standing queries admitted on every local stream at position 0,
    #: as ``agg:length[:step]`` specs (see
    #: :func:`repro.core.query.parse_query_spec`).  Evaluated by the
    #: shared multi-query engine (:mod:`repro.core.multiquery`)
    #: alongside — never instead of — the scheme's own global query;
    #: per-query accounts land in :attr:`RunResult.queries`.  The
    #: single-query case is just a one-element list.  Not part of
    #: :meth:`workload_key`: standing queries observe the workload.
    #: JSON transport turns the tuple into a list; consumers normalize.
    queries: tuple[str, ...] = ()

    def workload_key(self) -> WorkloadSpec:
        """The generation-parameter tuple of this run's workload.

        Runs whose configs map to an equal spec consume bit-identical
        workloads; the sweep executor and the workload cache use this
        to generate each distinct workload once and share it across
        scheme runs.
        """
        return WorkloadSpec(
            n_nodes=self.n_nodes, window_size=self.window_size,
            n_windows=self.n_windows, rate_per_node=self.rate_per_node,
            rate_change=self.rate_change,
            epoch_seconds=self.epoch_seconds, seed=self.seed,
            margin=self.margin)

    def resolved_batch_size(self) -> int:
        if self.batch_size is not None:
            if self.batch_size < 1:
                raise ConfigurationError(
                    f"batch_size must be >= 1, got {self.batch_size}")
            return self.batch_size
        per_node_window = max(1, self.window_size // self.n_nodes)
        if self.saturated:
            return max(64, min(65_536, per_node_window // 16))
        # Paced (latency) runs use finer batches: arrival granularity
        # bounds the measurable latency floor.
        return max(16, min(65_536, per_node_window // 64))


def make_context(config: RunConfig,
                 workload: Workload | None = None,
                 tracer: RunTracer | None = None
                 ) -> tuple[SchemeSpec, SchemeContext, RunTracer | None]:
    """Resolve scheme + query + workload into a fresh run context.

    Shared by both drivers: the simulator builder
    (:func:`repro.runtime.driver.build_run`) and every serve worker
    construct their context through here, so the holistic-query
    fallback, the result record, and the wire format cannot diverge
    between the oracle and the real runtime.
    """
    spec = get_scheme(config.scheme)
    if tracer is None and config.trace:
        tracer = RunTracer()
    if workload is None:
        workload = default_cache().get(config.workload_key())
    query = tumbling_count_query(
        config.window_size, config.aggregate, delta_m=config.delta_m,
        min_delta=config.min_delta)
    if not query.decomposable and spec.name not in (
            "central", "scotty", "disco"):
        # Paper footnote 2: "Deco performs centralized aggregation for
        # non-decomposable functions" — holistic queries transparently
        # fall back to the Central protocol.
        spec = replace(spec, root_cls=_central_classes()[0],
                       local_cls=_central_classes()[1])
    result = RunResult(scheme=config.scheme, n_nodes=workload.n_nodes,
                       window_size=config.window_size)
    ctx = SchemeContext(query=query, workload=workload, result=result,
                        fmt=spec.fmt,
                        retransmit_timeout_s=config.retransmit_timeout_s,
                        tracer=tracer if tracer is not None
                        else NULL_TRACER)
    if config.queries:
        # Standing queries: one shared engine per run, every spec
        # admitted on every local stream at position 0.  Each serve
        # worker builds the same engine through here, so admission
        # order — and therefore query ids — agree across runtimes.
        from repro.core.multiquery import MultiQueryEngine
        from repro.runtime.api import local_name
        engine = MultiQueryEngine(tracer=ctx.tracer)
        for i in range(workload.n_nodes):
            stream = local_name(i)
            for spec_str in tuple(config.queries):
                engine.admit(stream, spec_str, at=0)
        ctx.engine = engine
    return spec, ctx, tracer


def run_scheme(config: RunConfig,
               workload: Workload | None = None,
               tracer: RunTracer | None = None,
               ) -> tuple[RunResult, Workload]:
    """Run one scheme over one workload; returns result + workload.

    Executes on the simulator driver (the oracle).  Tracing
    (``config.trace`` or an explicit ``tracer``) records into the
    tracer without touching the :class:`RunResult` — traced and
    untraced runs produce identical results.
    """
    from repro.runtime.driver import run_scheme_simulated
    return run_scheme_simulated(config, workload, tracer)
