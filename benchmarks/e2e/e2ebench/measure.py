"""The measurement loop: set-up, timed rounds, the traced round, and
the metrics computed from them.

End-to-end metrics always come from untraced rounds.  A traced run
adds one round with ``repro.obs.RunTracer`` and the harness's span
recorder on, then the per-layer probes; the ratio of the two round
walls is the tracing overhead.
"""
# decolint: disable-file=DL001

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.workload import (SPILL_DIR_ENV, WorkloadCache,
                                 default_cache)
from repro.serve.harness import percentile

from e2ebench import probes
from e2ebench.spans import SpanRecorder
from e2ebench.workloads.base import (BenchWorkload, Round,
                                     total_events)

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Share of ``--seconds`` a traced run spends on untraced rounds (the
#: rest goes to the traced round and the probes).
TRACED_UNTRACED_SHARE = 0.4
PROBE_SHARE = 0.3

Samples = dict[str, list[float]]


@dataclass
class Report:
    """Everything one workload run measured."""

    workload: str
    loop: str
    seed: int
    quick: bool
    sizes: dict[str, object]
    events_per_round: int = 0
    setup_reps_s: list[float] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    traced: Round | None = None
    e2e: Samples = field(default_factory=dict)
    layers: Samples = field(default_factory=dict)
    spans_path: str | None = None

    @property
    def all_rounds(self) -> list[Round]:
        return self.rounds + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.all_rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.all_rounds)

    @property
    def errors(self) -> list[str]:
        return [r.error for r in self.all_rounds if r.error]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def _cpu_s() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def _rss_mb() -> tuple[float, float]:
    """(harness, largest waited child) peak resident MiB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            / 1024)


def measured_round(wl: BenchWorkload, spans: SpanRecorder,
           traced: bool) -> Round:
    own0, kids0 = _cpu_s()
    rnd = wl.run_round(spans, traced)
    own1, kids1 = _cpu_s()
    rnd.cpu_self_s, rnd.cpu_child_s = own1 - own0, kids1 - kids0
    wl.check(rnd)
    return rnd


def set_up(wl: BenchWorkload, tmp: Path, reps: int) -> list[float]:
    """Cold ``generate_workload`` into a fresh spill directory plus the
    workload's staged un-timed part, ``reps`` times.  The first goes
    through the process-wide cache (emptied first), so the runs that
    follow -- and the serve workers, through the environment -- find
    the spill file there."""
    spec = wl.config().workload_key()
    cache = default_cache()
    cache.clear()
    cache.spill_dir = tmp / "cache"
    os.environ[SPILL_DIR_ENV] = str(cache.spill_dir)
    times = []
    for rep in range(reps):
        start = time.perf_counter()
        source = cache if rep == 0 else WorkloadCache(
            spill_dir=tmp / "cold")
        workload = source.get(spec)
        wl.stage(workload)
        times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(source.spill_dir)
    wl.prepare(cache.get(spec))
    return times


def run_workload(cls: type[BenchWorkload], seed: int, *,
                 out_dir: Path, seconds: float,
                 rounds: int | None = None, quick: bool = False,
                 traced: bool = False) -> Report:
    """Set up, measure and check one workload.

    ``rounds`` fixes the number of untraced rounds; otherwise another
    round starts while one of average length still fits in ``seconds``.
    """
    wl = cls(seed, quick)
    report = Report(workload=wl.NAME, loop=wl.LOOP, seed=seed,
                    quick=quick, sizes=wl.sizes)
    tmp = out_dir / f"tmp-{os.getpid()}-{wl.NAME}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        report.setup_reps_s = set_up(wl, tmp,
                                     1 if quick else SETUP_REPS)
        untraced = SpanRecorder(enabled=False)
        budget = seconds * (TRACED_UNTRACED_SHARE if traced else 1.0)
        start = time.perf_counter()
        while True:
            report.rounds.append(
                measured_round(wl, untraced, traced=False))
            if rounds is not None:
                if len(report.rounds) >= rounds:
                    break
            else:
                elapsed = time.perf_counter() - start
                if elapsed * (1 + 1 / len(report.rounds)) > budget:
                    break
        report.events_per_round = report.rounds[0].events
        report.e2e = end_to_end(report)
        if traced:
            spans = SpanRecorder()
            with spans.span(f"round.{wl.NAME}", seed=seed):
                report.traced = measured_round(wl, spans, traced=True)
            probed = _probe(wl, spans, tmp, report.traced.counts,
                            seconds * PROBE_SHARE)
            report.layers = per_layer(wl, report, probed)
            path = out_dir / f"{wl.NAME}.spans.jsonl"
            spans.write_jsonl(path)
            report.spans_path = str(path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def _probe(wl: BenchWorkload, spans: SpanRecorder, tmp: Path,
           counts: dict[str, float], budget_s: float) -> Samples:
    out: Samples = {}
    each = budget_s / max(1, len(wl.PROBES))
    for name in wl.PROBES:
        with spans.span(f"probe.{name}"):
            out.update(probes.PROBES[name](wl, each, tmp, counts))
    return out


# -- metrics -----------------------------------------------------------------

def end_to_end(report: Report) -> Samples:
    """Per-round samples of every end-to-end metric (the reported
    value is their median)."""
    rounds = report.rounds
    untimed = statistics.median(r.untimed_s for r in rounds)
    if report.loop == "open":
        # Rounds that raised have no windows to take a latency from.
        latency = [1e3 * percentile(r.latencies_s, 0.5)
                   for r in rounds if r.latencies_s] or [0.0]
    else:
        # Closed loop: time from submitting the round's input to its
        # complete result.
        latency = [1e3 * r.wall_s for r in rounds]
    attempted = sum(r.attempted for r in rounds)
    return {
        "setup_s": [s + untimed for s in report.setup_reps_s],
        "throughput_eps": [r.events / r.wall_s for r in rounds],
        "result_latency_p50_ms": latency,
        "cpu_s_per_mevent": [1e6 * r.cpu_s / r.events for r in rounds],
        "peak_rss_mb": [max(_rss_mb())],
        "net_bytes_per_event": [r.net_bytes / r.events
                                for r in rounds],
        "failed_share": [sum(r.failed for r in rounds) / attempted],
        "ops_attempted": [float(attempted)],
    }


def _median(samples: Samples, name: str) -> float:
    return statistics.median(samples[name]) if samples.get(name) \
        else 0.0


def per_layer(wl: BenchWorkload, report: Report,
              probed: Samples) -> Samples:
    """Counts of the traced round, probe unit costs, and what the two
    together explain of the traced round's wall."""
    traced = report.traced
    counts = traced.counts
    # What an untraced round can read at a boundary is reported from
    # the untraced rounds (tracing perturbs walls and latencies); the
    # traced round adds what needs the tracer or the span recorder.
    out: Samples = {name: [float(value)]
                    for name, value in counts.items()}
    for name in report.rounds[0].counts:
        out[name] = [float(r.counts[name]) for r in report.rounds
                     if name in r.counts]
    out.update(probed)
    wall = traced.wall_s
    serve = "serve.coordinator.run_s" in counts
    if serve:
        # Worker CPU accrues from spawn to exit (imports included), so
        # its share is of the whole call; the coordinator's CPU outside
        # the run loop is a few ms, so its share is of the loop.
        workers = wl.config().n_nodes + 1
        out["serve.coordinator.cpu_s"] = [traced.cpu_self_s]
        out["serve.coordinator.busy_share"] = [
            traced.cpu_self_s / wall]
        out["serve.worker.cpu_s"] = [traced.cpu_child_s]
        out["serve.worker.busy_share"] = [
            traced.cpu_child_s
            / (workers * (wall + traced.untimed_s))]
        out["serve.worker.peak_rss_mb"] = [_rss_mb()[1]]
    out["obs.trace_overhead_x"] = [
        wall / statistics.median(r.wall_s for r in report.rounds)]

    def per_s(name: str) -> float:
        rate = _median(probed, name)
        return 1.0 / rate if rate else 0.0

    # Estimated seconds per layer: count at the boundary x probe unit
    # cost.  A run stops at its last window, so the events a layer saw
    # are the ones inside complete windows, not the generated margin.
    # On serve every fabric message is coded three times each way
    # (worker, coordinator fabric, coordinator transport).
    workload = wl.workload
    events = (traced.events // total_events(workload)
              * workload.total_events)
    wire_s = ((3 if serve else 1) * counts.get("wire.bytes", 0) / 1e6
              * (per_s("wire.encode_mbps") + per_s("wire.decode_mbps")))
    estimates = [
        wire_s,
        counts.get("serve.framing.frames", 0)
        * _median(probed, "serve.framing.roundtrip_us") / 1e6,
        counts.get("serve.protocol.outcomes", 0)
        * _median(probed, "serve.protocol.outcome_json_us") / 1e6,
        counts.get("serve.merge.batches", 0)
        * _median(probed, "serve.merge.pop_us") / 1e6,
        counts.get("sim.kernel.events", 0)
        * per_s("sim.kernel.events_per_s"),
        counts.get("sim.network.messages", 0)
        * _median(probed, "sim.network.send_us") / 1e6,
        events * per_s("core.buffers.append_release_eps"),
        events * per_s("core.multiquery.append_eps"),
        counts.get("metrics.summarize_s", 0.0),
    ]
    if "multiquery" not in wl.PROBES:
        # The engine probe already contains its own index work.
        estimates.append(events * per_s("core.agg_index.extend_eps"))
    out["wire.est_share"] = [wire_s / wall]
    out["bench.residual_share"] = [1.0 - sum(estimates) / wall]
    return out
