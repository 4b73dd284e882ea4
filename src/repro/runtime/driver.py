"""The simulator driver's steps: build a cluster, inject, run, collect.

Every node on one kernel, sending through the simulator's
:class:`~repro.sim.network.Network` — the deterministic oracle.  :func:`repro.core.runner.run_scheme` chains
these steps into one run, which:

1. generates (or accepts) a :class:`~repro.core.workload.Workload`,
2. builds the star topology with the scheme's behaviours and profiles
   (:func:`build_run`),
3. injects each node's stream as :class:`SourceBatch` deliveries via
   the feeder (:mod:`repro.runtime.feeder`),
4. runs the simulation and packages a :class:`RunResult`.

The serve runtime (:mod:`repro.serve`) reuses steps 1-3's *structure*
— same context construction, same injection order, same collection —
over real node processes, and must reproduce this driver's results
bit-for-bit (the simulator-as-oracle contract, DESIGN §11).
"""

from __future__ import annotations

from repro.core.context import SchemeContext
from repro.core.protocol import make_sizer
from repro.core.records import RunResult
from repro.core.runner import RunConfig, SchemeSpec, make_context
from repro.core.workload import Workload
from repro.obs.tracer import RunTracer
from repro.runtime.api import ROOT_NAME
from repro.runtime.feeder import inject_stream
from repro.runtime.node import NodeProfile
from repro.sim.topology import StarTopology, build_star, peer_mesh
from repro.streams.event import ticks_to_seconds


def resolved_profiles(config: RunConfig, spec: SchemeSpec
                      ) -> tuple[NodeProfile, NodeProfile]:
    """``(root_profile, local_profile)`` after the scheme's transform."""
    transform = spec.profile_transform
    if transform is None:
        return config.root_profile, config.local_profile
    return (transform(config.root_profile),
            transform(config.local_profile))


def stamp_run_meta(tracer: RunTracer, config: RunConfig,
                   n_nodes: int) -> None:
    """Record the run's identifying parameters on its tracer."""
    tracer.meta.setdefault("scheme", config.scheme)
    tracer.meta.setdefault("n_nodes", n_nodes)
    tracer.meta.setdefault("window_size", config.window_size)
    tracer.meta.setdefault("n_windows", config.n_windows)
    tracer.meta.setdefault("seed", config.seed)


def build_run(config: RunConfig,
              workload: Workload | None = None,
              tracer: RunTracer | None = None
              ) -> tuple[StarTopology, SchemeContext]:
    """Construct the topology + context for a config (without running).

    Pass a :class:`~repro.obs.tracer.RunTracer` to collect into it, or
    leave ``tracer`` unset for the zero-overhead null tracer.
    """
    spec, ctx = make_context(config, workload, tracer)
    workload = ctx.workload
    root_profile, local_profile = resolved_profiles(config, spec)
    topo = build_star(
        workload.n_nodes, sizer=make_sizer(spec.fmt),
        root_profile=root_profile, local_profile=local_profile,
        bandwidth=config.bandwidth, latency=config.latency,
        root_behavior=spec.root_cls(ctx),
        local_behavior_factory=lambda i: spec.local_cls(i, ctx),
        tiebreak_salt=config.tiebreak_salt)
    if spec.needs_peer_mesh:
        peer_mesh(topo)
    # Imported here, not at module top: repro.wire.codec itself imports
    # repro.core.protocol, so a top-level import would cycle whenever
    # the codec is the first repro module loaded.
    from repro.wire.codec import MessageCodec
    # Real encode/decode on the message path: receivers only see what
    # survived the binary frame.  Bit-identical to the modelled path
    # (``network.codec = None``) by construction — the size model
    # derives from the frame layout.
    topo.network.codec = MessageCodec(spec.fmt)
    if tracer is not None:
        topo.sim.tracer = tracer
        stamp_run_meta(tracer, config, workload.n_nodes)
    return topo, ctx


def inject_sources(topo: StarTopology, ctx: SchemeContext,
                   batch_size: int, saturated: bool,
                   sources: int = 1) -> None:
    """Start every node's source feeder(s).

    Injection is demand-driven: this arms one timer per source client
    (a node's whole generated stream stays reachable, because a
    speculative scheme may read past the last measured boundary), and
    each feeder slices, wraps and schedules its next batch only when
    the previous one fires — the run stops at the last emission and
    pays for nothing beyond it.  ``sources`` fans each paced stream
    out to that many concurrent clients (see
    :func:`repro.runtime.feeder.inject_stream`).
    """
    for i, stream in enumerate(ctx.workload.streams):
        inject_stream(topo.local(i), stream, batch_size, saturated,
                      sender=f"source-{i}", sources=sources)


def collect(topo: StarTopology, ctx: SchemeContext) -> RunResult:
    """Fill network/CPU accounting into the run's result."""
    result = ctx.result
    net = topo.network
    result.bytes_up = net.bytes_into(ROOT_NAME)
    result.bytes_down = net.bytes_from(ROOT_NAME)
    total = net.total_bytes()
    result.bytes_peer = total - result.bytes_up - result.bytes_down
    result.messages = net.total_messages()
    result.node_busy_s = {
        name: node.metrics.busy_s for name, node in net.nodes().items()}
    ingress = net.nic(ROOT_NAME, "ingress")
    result.root_ingress_bytes_per_s = (
        ingress.utilization_until_now * ingress.bandwidth)
    if ctx.engine is not None:
        result.queries = ctx.engine.accounts_json()
    return result


def simulation_cap_s(ctx: SchemeContext) -> float:
    """Safety cap on simulated time.

    A healthy run finishes within the stream's own duration (paced) or
    far sooner (saturated); a stalled protocol otherwise keeps the
    event queue alive forever via backpressure-retry and timeout
    events.  The cap bounds the run so stalls surface as diagnostics.
    """
    last_ts = max(
        ticks_to_seconds(int(s.ts[-1]))
        for s in ctx.workload.streams if len(s))
    return 3.0 * last_ts + 10.0


def run_simulation(topo: StarTopology, ctx: SchemeContext,
                   batch_size: int, saturated: bool,
                   sources: int = 1) -> RunResult:
    """Inject sources, run to completion (or the safety cap), collect."""
    inject_sources(topo, ctx, batch_size, saturated, sources)
    topo.start()
    topo.sim.run(until=simulation_cap_s(ctx))
    return collect(topo, ctx)


def release_run(topo: StarTopology) -> None:
    """Break a finished run's kernel <-> nodes <-> fabric cycle.

    Pending kernel events hold callbacks bound to nodes and behaviours,
    nodes hold the fabric, the fabric holds the nodes: left alone, the
    run's buffers and workload views live until the cycle collector
    happens to run — and numpy buffers do not count towards its
    allocation thresholds, so that can be several runs later.  After
    this, dropping ``topo`` frees them by reference count alone.  The
    :class:`RunResult` and the workload are not touched.
    """
    topo.sim.clear()
    for name, node in topo.network.nodes().items():
        node.behavior = None
        node.network = None
        topo.network.detach(name)
