"""What the three serve workloads share: one round is one
``run_scheme_served`` call -- root + 2 locals as real OS processes
over TCP, the coordinator in the harness process (4 processes on the
2-core reference box) -- checked window by window against the
simulator oracle on the same config."""
# decolint: disable-file=DL001

from __future__ import annotations

import statistics
import time

from repro.analysis.determinism import Fingerprint
from repro.core.workload import Workload
from repro.errors import ServeError, SimulationError
from repro.obs.tracer import RunTracer
from repro.serve.harness import percentile, run_scheme_served

from e2ebench import checks
from e2ebench.spans import SpanRecorder
from e2ebench.workloads import sim
from e2ebench.workloads.base import BenchWorkload, Round, total_events

#: A paced round whose last quartile of windows is later than its first
#: quartile by more than this is a growing backlog, not a latency: the
#: rate is unsustainable and the round is invalid.
BACKLOG_LIMIT_MS = 50.0
#: Latency objective for ``serve.coordinator.slo_miss_share``.
SLO_MS = 50.0


def backlog_growth_ms(latencies_s: list[float]) -> float:
    """Median latency of the last quartile of windows minus that of the
    first.  Medians, not means: a backlog lifts every late window, one
    scheduler hiccup or the start-up transient lifts a few."""
    quarter = max(1, len(latencies_s) // 4)
    return 1e3 * (statistics.median(latencies_s[-quarter:])
                  - statistics.median(latencies_s[:quarter]))


class ServeWorkload(BenchWorkload):
    PROBES = ("setup", "framing", "protocol", "merge", "kernel",
              "wire")

    def prepare(self, workload: Workload) -> None:
        super().prepare(workload)
        # The oracle executes the same global event order the
        # coordinator replays, so its kernel event count is the
        # coordinator's too.
        result, self.kernel_events = sim.staged_run(
            self.config(), workload, SpanRecorder(enabled=False), None)
        self.oracle = Fingerprint.of(result)

    def run_round(self, spans: SpanRecorder, traced: bool) -> Round:
        config = self.config()
        tracer = RunTracer() if traced else None
        events = total_events(self.workload)
        start = time.perf_counter()
        try:
            with spans.span("serve.harness.run_scheme_served"):
                report = run_scheme_served(config, tracer)
        except (ServeError, SimulationError) as exc:
            return Round(events=events, traced=traced,
                         wall_s=time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}")
        call_s = time.perf_counter() - start
        result = report.result
        rnd = Round(events=events, traced=traced,
                    wall_s=report.wall_seconds,
                    untimed_s=call_s - report.wall_seconds,
                    net_bytes=result.total_bytes, outputs=result)
        counts = rnd.counts
        counts.update(sim.result_counts([result]))
        counts["sim.kernel.events"] = self.kernel_events
        counts["serve.protocol.outcomes"] = len(result.outcomes)
        counts["serve.coordinator.run_s"] = report.wall_seconds
        counts["serve.harness.spawn_teardown_s"] = rnd.untimed_s
        counts["serve.worker.virtual_busy_max_s"] = max(
            result.node_busy_s.values())
        if not config.saturated:
            # From the creation of the window's last event (stream
            # time) to the arrival of its result (wall time since the
            # run loop started pacing): includes the feeder's batching
            # wait and every stall behind it, excludes window length.
            lat = [max(0.0, w.wall_offset_s
                       - self.workload.boundary_seconds(w.index))
                   for w in report.windows]
            rnd.latencies_s = lat
            counts["serve.coordinator.backlog_growth_ms"] = \
                backlog_growth_ms(lat)
            counts["serve.coordinator.result_latency_p95_ms"] = \
                1e3 * percentile(lat, 0.95)
            counts["serve.coordinator.slo_miss_share"] = sum(
                1 for s in lat if s * 1e3 > SLO_MS) / len(lat)
        if tracer is not None:
            frames = sum(
                value for (name, _scope), value
                in tracer.counters.items()
                if name in ("serve_frames_sent", "serve_frames_recv"))
            counts["serve.framing.frames"] = frames
            counts["serve.coordinator.events_per_frame"] = \
                events / frames
            counts["serve.merge.batches"] = \
                tracer.counts_by_kind().get("op_apply", 0)
            counts["obs.events"] = len(tracer.events)
        return rnd

    def check(self, rnd: Round) -> None:
        n = self.sizes["n_windows"]
        rnd.attempted = n
        if rnd.error is not None:
            rnd.failed = n
        elif not rnd.traced and rnd.counts.get(
                "serve.coordinator.backlog_growth_ms",
                0.0) > BACKLOG_LIMIT_MS:
            # Tracing may push a traced round past the sustainable
            # rate; its windows are still checked, its pace is not.
            rnd.error = "backlog growing: the paced rate is not sustained"
            rnd.failed = n
        else:
            rnd.failed = checks.failed_against_oracle(
                rnd.outputs, self.oracle, n)
