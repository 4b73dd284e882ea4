"""``sim_figures`` -- the researcher's traffic.

Closed loop, in-process simulator, ``jobs=1``: one round is
``compare()`` of the paper's seven schemes at 8 local nodes once
saturated (Fig. 7a shape) and once paced in virtual time
(``mode="latency"``, Fig. 7b shape).

Why it exists: this is what a user reproducing the paper runs, and the
oracle every fingerprint gate runs.  The saturated half is numpy-bound
(``aggregates``, ``core.agg_index``, ``wire``), the paced half is
interpreter-bound (``sim.kernel``, ``runtime.feeder``, ``sim.network``).
No sockets, JSON or processes: a serve-layer change must not move it.

Final size: ``n_windows=8`` (the issue measured 40).  A run gets
``run_seconds`` = 20 s to measure in and its metrics are medians over
rounds; the 2 s generator tail (1.6M of the 2.5M events at 8 x 100k
ev/s) costs the same at any window count, so 8 windows gives a ~3.6 s
round (five per run) on the 2-core reference box where 40 gives ~11 s.
It stays above the 4 windows ``mode="latency"`` needs after skipping
the three bootstrap windows.
"""
# decolint: disable-file=DL001

from __future__ import annotations

import time

from repro import api
from repro.core.records import RunResult
from repro.core.workload import Workload
from repro.errors import SimulationError
from repro.metrics.correctness import correctness
from repro.metrics.latency import percentile_latency
from repro.metrics.throughput import sustainable_throughput
from repro.obs.tracer import RunTracer

from e2ebench import checks
from e2ebench.spans import SpanRecorder
from e2ebench.workloads import sim
from e2ebench.workloads.base import BenchWorkload, Round, total_events

#: Schemes whose every window must equal the ground-truth sum.
EXACT = tuple(s for s in api.ALL_SCHEMES if s != "approx")
MODES = ("throughput", "latency")


class SimFigures(BenchWorkload):
    NAME = "sim_figures"
    WHY = ("paper's 7 schemes on the in-process simulator, saturated "
           "and paced: numpy- and interpreter-bound, no sockets or "
           "JSON, so serve-layer changes must not move it")
    FULL = {"n_nodes": 8, "window_size": 80_000, "n_windows": 8}
    QUICK = {"n_nodes": 8, "window_size": 4_000, "n_windows": 6,
             "rate_per_node": 5_000.0}
    PROBES = ("setup", "aggregates", "agg_index", "buffers", "wire",
              "kernel", "network")

    def _configs(self):
        for mode in MODES:
            for scheme in api.ALL_SCHEMES:
                yield mode, self.config(
                    scheme=scheme, saturated=(mode == "throughput"))

    def stage(self, workload: Workload) -> None:
        for _mode, config in self._configs():
            sim.stage_only(config, workload)

    def prepare(self, workload: Workload) -> None:
        super().prepare(workload)
        self.sums = checks.window_sums(workload)

    def run_round(self, spans: SpanRecorder, traced: bool) -> Round:
        workload = self.workload
        rnd = Round(events=len(MODES) * len(api.ALL_SCHEMES)
                    * total_events(workload), wall_s=0.0,
                    traced=traced)
        results: dict[tuple[str, str], RunResult] = {}
        start = time.perf_counter()
        try:
            if traced:
                self._staged(spans, results, rnd)
            else:
                for mode in MODES:
                    for scheme, summary in api.compare(
                            api.ALL_SCHEMES, seed=self.seed, jobs=1,
                            mode=mode, **self.run_kwargs).items():
                        results[mode, scheme] = summary.result
        except SimulationError as exc:
            rnd.error = f"{type(exc).__name__}: {exc}"
        rnd.wall_s = time.perf_counter() - start
        rnd.outputs = results
        rnd.net_bytes = sum(r.total_bytes for r in results.values())
        rnd.counts.update(sim.result_counts(results.values()))
        approx = results.get(("throughput", "approx"))
        if approx is not None:
            rnd.counts["baselines.approx.correctness"] = correctness(
                approx, workload)
        return rnd

    def _staged(self, spans: SpanRecorder,
                results: dict[tuple[str, str], RunResult],
                rnd: Round) -> None:
        """The traced round: the same 14 runs, staged through
        ``runtime.driver`` with ``RunTracer`` on, then summarized the
        way ``api.compare`` summarizes them."""
        kernel_events = obs_events = 0
        for mode, config in self._configs():
            tracer = RunTracer()
            result, executed = sim.staged_run(config, self.workload,
                                              spans, tracer)
            results[mode, config.scheme] = result
            kernel_events += executed
            obs_events += len(tracer.events)
            with spans.span("metrics.summarize", scheme=config.scheme):
                correctness(result, self.workload)
                if mode == "throughput":
                    sustainable_throughput(result)
                else:
                    percentile_latency(result, self.workload,
                                       config.resolved_batch_size(),
                                       50.0)
        rnd.counts.update(sim.stage_counts(spans))
        rnd.counts["metrics.summarize_s"] = spans.total(
            "metrics.summarize")
        rnd.counts["sim.kernel.events"] = kernel_events
        rnd.counts["obs.events"] = obs_events

    def check(self, rnd: Round) -> None:
        n = self.sizes["n_windows"]
        rnd.attempted = len(MODES) * len(api.ALL_SCHEMES) * n
        if rnd.error is not None:
            rnd.failed = rnd.attempted
            return
        failed = 0
        for mode in MODES:
            for scheme in EXACT:
                failed += checks.failed_against_sums(
                    rnd.outputs[mode, scheme], self.sums)
            failed += checks.missing_windows(
                rnd.outputs[mode, "approx"], n)
        rnd.failed = failed
