"""Serve harness: spawn a real-process cluster, run it, merge results.

:func:`run_scheme_served` is the serve-runtime twin of
:func:`repro.core.runner.run_scheme`: same :class:`RunConfig` in, same
:class:`RunResult` out — except every node runs as its own OS process
speaking the binary wire codec over TCP, and the report additionally
carries wall-clock load-test observations (per-window latencies,
sustained throughput).

The per-window results, emission times, flow/byte counts and busy time
are bit-identical to the simulator driver's for every scheme; the
simulator is the oracle ``verify_against_simulator`` checks against.
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.records import RunResult
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import Workload
from repro.errors import ServeError
from repro.obs.events import TraceEvent
from repro.obs.tracer import RunTracer
from repro.runtime.driver import collect
from repro.serve.coordinator import (HANDSHAKE_TIMEOUT_S, Coordinator,
                                     SocketTransport, WindowSample)
from repro.serve.protocol import SUMMED_FIELDS, config_to_json

#: Seconds to wait for worker processes to exit after FINAL.
SHUTDOWN_TIMEOUT_S = 15.0


def percentile(samples: list[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 1]).

    Matches ``numpy.percentile``'s default method, keeping serve
    load-test tails consistent with the offline metrics module.  (The
    previous nearest-rank rule collapsed neighbouring quantiles onto
    the same sample at small n — with under 20 windows p95 and p99
    were always the same number.)
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not samples:
        return math.nan
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


@dataclass
class ServeReport:
    """One serve run's merged results plus load-test observations."""

    result: RunResult
    workload: Workload
    #: Wall-clock window observations in emission order.
    windows: list[WindowSample] = field(default_factory=list)
    wall_seconds: float = 0.0
    events_total: int = 0
    saturated: bool = True
    tracer: RunTracer | None = None

    @property
    def throughput_eps(self) -> float:
        """Sustained events/s the pipeline processed (wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_total / self.wall_seconds

    def window_latencies_s(self) -> list[float]:
        """Per-window result latencies in seconds.

        Paced runs: wall delay of each result behind its virtual
        emission time (the classic load-test latency — input arrives in
        real time, how far behind does the answer trail?).  Saturated
        runs: wall time between consecutive window emissions (inverse
        of window completion rate; there is no arrival schedule to
        measure against).
        """
        if not self.saturated:
            return [max(0.0, w.wall_offset_s - w.emit_time)
                    for w in self.windows]
        out = []
        prev = 0.0
        for w in self.windows:
            out.append(w.wall_offset_s - prev)
            prev = w.wall_offset_s
        return out

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 over :meth:`window_latencies_s`."""
        lat = self.window_latencies_s()
        return {"p50_s": percentile(lat, 0.50),
                "p95_s": percentile(lat, 0.95),
                "p99_s": percentile(lat, 0.99)}


def worker_argv(host: str, port: int, node: str,
                config: RunConfig) -> list[str]:
    """Command line for one worker process."""
    return [sys.executable, "-m", "repro.serve.worker",
            "--host", host, "--port", str(port), "--node", node,
            "--config", json.dumps(config_to_json(config))]


def worker_env() -> dict[str, str]:
    """Worker process environment: parent env + this interpreter's
    import path, so ``python -m repro.serve.worker`` resolves the same
    package tree as the parent."""
    env = dict(os.environ)
    paths = [p for p in sys.path if p]
    existing = env.get("PYTHONPATH")
    if existing:
        paths.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _merge_trace(tracer: RunTracer,
                 finals: dict[str, dict[str, Any]]) -> None:
    """Fold worker-side trace payloads into the coordinator's tracer.

    Worker events are node-scoped (each worker traces only its own
    node), so the merge is collision-free by construction; events are
    re-sorted by time to restore the global execution order.
    """
    for final in finals.values():
        trace = final.get("trace")
        if not trace:
            continue
        for kind, at, node, dur, data in trace["events"]:
            tracer.events.append(TraceEvent(kind, at, node, dur, data))
        for name, scope, value in trace["counters"]:
            tracer.inc(name, scope, value)
        for name, scope, last, high in trace["gauges"]:
            key = (name, scope)
            prev = tracer.gauges.get(key)
            if prev is None:
                tracer.gauges[key] = (last, high)
            else:
                tracer.gauges[key] = (last, max(prev[1], high))
    tracer.events.sort(key=lambda e: e.time)


def _merge_queries(coord: Coordinator, result: RunResult) -> None:
    """Fold worker FINAL standing-query accounts into the result.

    Each worker ships only the accounts whose stream it owns (replicas
    register every query but never feed foreign streams), so the merge
    is collision-free; iterating ``node_names`` keeps the merged dict
    in the simulator driver's admission order.
    """
    merged: dict[str, dict[str, Any]] = {}
    for name in coord.node_names:
        merged.update(coord.finals[name].get("queries") or {})
    result.queries = merged


def _merge_results(coord: Coordinator) -> RunResult:
    """One :class:`RunResult` from the coordinator's applied state.

    The coordinator is authoritative for outcomes: a worker executes
    its whole epoch optimistically, so after a mid-epoch stop its
    result can include outcomes from batches the merge discarded — the
    applied-op stream is the record of what actually ran.  Counters
    come from FINAL, which each worker cut at the stop key FINISH
    named.
    """
    # Network/byte accounting lives coordinator-side on the real
    # fabric; collect() fills it exactly as the simulator driver does.
    result = collect(coord.topo, coord.ctx)
    counters = {name: final["c"] for name, final in coord.finals.items()}
    result.outcomes = list(coord.applied_outcomes)
    for i, fieldname in enumerate(SUMMED_FIELDS):
        setattr(result, fieldname,
                sum(c[i] for c in counters.values()))
    result.node_busy_s = {
        name: counters[name][len(SUMMED_FIELDS)]
        for name in coord.node_names}
    result.sim_time = max(
        c[len(SUMMED_FIELDS) + 1] for c in counters.values())
    _merge_queries(coord, result)
    return result


def _accept_workers(listener: socket.socket,
                    transport: SocketTransport, names: list[str],
                    procs: dict[str, subprocess.Popen]) -> None:
    """HELLO/ACK every node in ``names`` onto ``transport``.

    One loop bounded by the handshake deadline; between short accepts
    it polls the process table, so a worker that exits before
    connecting (import error, bad argv, a port race) surfaces at once
    instead of leaving the survivors orphaned until the deadline.
    """
    deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
    listener.settimeout(0.05)
    while len(transport.socks) < len(names):
        dead = {name: proc.returncode for name, proc in procs.items()
                if proc.poll() is not None and proc.returncode != 0}
        if dead:
            details = ", ".join(f"{name} exited {code}"
                                for name, code in sorted(dead.items()))
            raise ServeError(
                f"worker process died before handshake: {details}")
        if time.monotonic() >= deadline:
            missing = sorted(set(names) - set(transport.socks))
            raise ServeError(
                f"workers never connected within "
                f"{HANDSHAKE_TIMEOUT_S:g}s: {missing}")
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        transport.adopt(conn, names)


def run_scheme_served(
        config: RunConfig,
        tracer: RunTracer | None = None,
        host: str = "127.0.0.1",
) -> ServeReport:
    """Run one scheme on a real-process cluster; returns the report.

    Spawns one worker process per node (root + locals), runs the
    coordinator over TCP on ``host`` (ephemeral port), and merges
    worker results into a :class:`RunResult` bit-identical to the
    simulator driver's.  Standing queries are ``config.queries``,
    admitted by every worker's own
    :func:`~repro.core.runner.make_context`.
    """
    transport = SocketTransport()
    coord = Coordinator(config, transport, tracer)
    procs: dict[str, subprocess.Popen] = {}
    listener = socket.create_server((host, 0))
    try:
        port = listener.getsockname()[1]
        env = worker_env()
        for name in coord.node_names:
            procs[name] = subprocess.Popen(
                worker_argv(host, port, name, coord.worker_config),
                env=env)
        _accept_workers(listener, transport, coord.node_names, procs)
        coord.run()
    except ServeError as exc:
        # Reap everything first: a worker that just crashed may not be
        # wait()-able in the instant its EOF reaches the coordinator.
        _terminate(procs)
        # Positive codes are genuine worker deaths; negative ones are
        # the SIGTERM we just sent to the survivors.
        dead = {name: proc.returncode for name, proc in procs.items()
                if proc.returncode is not None and proc.returncode > 0}
        if dead:
            details = ", ".join(f"{name} exited {code}"
                                for name, code in sorted(dead.items()))
            raise ServeError(f"{exc} ({details})") from None
        raise
    except BaseException:
        _terminate(procs)
        raise
    finally:
        listener.close()
        for sock in transport.socks.values():
            sock.close()
    # Graceful shutdown: every worker replied FINAL and must now exit
    # cleanly on its own.
    for name, proc in procs.items():
        try:
            code = proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _terminate(procs)
            raise ServeError(
                f"node {name!r} did not exit after FINAL") from None
        if code != 0:
            raise ServeError(
                f"node {name!r} exited {code} after FINAL")
    result = _merge_results(coord)
    if result.n_windows < coord.ctx.n_windows:
        raise ServeError(
            f"scheme {config.scheme!r} stalled on the serve runtime: "
            f"emitted {result.n_windows}/{coord.ctx.n_windows} windows")
    if coord.tracer is not None:
        _merge_trace(coord.tracer, coord.finals)
    return ServeReport(
        result=result, workload=coord.ctx.workload,
        windows=coord.windows, wall_seconds=coord.wall_seconds,
        events_total=sum(len(s) for s in coord.ctx.workload.streams),
        saturated=config.saturated, tracer=coord.tracer)


def _terminate(procs: dict[str, subprocess.Popen]) -> None:
    """Kill any still-running worker processes (cleanup path)."""
    for proc in procs.values():
        if proc.poll() is None:
            proc.terminate()
    for proc in procs.values():
        if proc.poll() is None:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)


def verify_against_simulator(config: RunConfig,
                             result: RunResult) -> None:
    """Raise unless the serve run's TimedFingerprint equals the oracle's."""
    # Imported here: repro.analysis imports this module (the model
    # checker), and worker start-up should not pay for the analyzers.
    from repro.analysis.determinism import TimedFingerprint
    oracle = TimedFingerprint.of(run_scheme(config)[0])
    if diff := oracle.diff(TimedFingerprint.of(result)):
        raise ServeError(
            f"serve run of {config.scheme!r} diverged from the "
            f"simulator oracle: {'; '.join(diff)}")
