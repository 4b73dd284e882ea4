"""``multiquery_fanout`` -- a thousand standing queries on one run.

Closed loop, in-process simulator: ``api.run("deco_async",
window_size=20_000, queries=<1000 specs>)`` with 2 locals.  The specs
follow ``benchmarks/bench_queries.py:make_specs`` (cycled aggregates,
tumbling and sliding, 499 distinct lengths), rotated by the workload
seed.  ``core.multiquery`` does nearly all the work here (the same run
without queries takes ~2% of the time) and none in the other four
workloads, so ROADMAP item 3 (one event store, heap-driven emission)
claims its gain here while the other four must not move.

Final size: ``n_windows=12`` (the issue measured 25, ~2.7 s/round).
0.7M events give a ~0.95 s round, so about twenty rounds fit the 20 s
a run measures for.
"""
# decolint: disable-file=DL001

from __future__ import annotations

import math
import random
import time
from typing import Any

import numpy as np

from repro import api
from repro.core.multiquery import MultiQueryEngine
from repro.core.query import parse_query_spec
from repro.core.workload import Workload
from repro.errors import SimulationError
from repro.obs.tracer import RunTracer
from repro.windows.base import SlidingCountWindow

from e2ebench import checks
from e2ebench.spans import SpanRecorder
from e2ebench.workloads import sim
from e2ebench.workloads.base import BenchWorkload, Round, total_events

#: Standing queries whose fingerprints are recomputed privately.
SAMPLE = 20

_NUMPY_AGG = {"sum": np.sum, "avg": np.mean, "max": np.max}


def make_specs(n: int, seed: int) -> tuple[str, ...]:
    """``n`` ``agg:length[:step]`` specs, rotated by ``seed``."""
    aggs = ("sum", "avg", "max")
    specs = []
    for i in range(seed, seed + n):
        agg = aggs[i % len(aggs)]
        length = 4096 + 32 * (i % 499)
        if i % 2:
            step = max(256, length // 2 - 16 * (i % 7))
            specs.append(f"{agg}:{length}:{step}")
        else:
            specs.append(f"{agg}:{length}")
    return tuple(specs)


def _window(label: str) -> tuple[str, int, int]:
    query = parse_query_spec(label)
    win = query.window
    step = win.step if isinstance(win, SlidingCountWindow) \
        else win.length
    return query.aggregate.name, win.length, step


class MultiqueryFanout(BenchWorkload):
    NAME = "multiquery_fanout"
    WHY = ("1000 standing queries on one simulated deco_async run: "
           "core.multiquery does nearly all the work here and none in "
           "the other four workloads")
    FULL = {"n_nodes": 2, "window_size": 20_000, "n_windows": 12}
    QUICK = {"n_nodes": 2, "window_size": 20_000, "n_windows": 4,
             "rate_per_node": 20_000.0}
    PROBES = ("setup", "agg_index", "multiquery")

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.specs = make_specs(50 if quick else 1000, seed)
        #: (stream, label, windows) -> private fingerprint + last value.
        self._private: dict[tuple[str, str, int], tuple[str, float]] = {}

    def stage(self, workload: Workload) -> None:
        sim.stage_only(self.config(queries=self.specs), workload)

    def prepare(self, workload: Workload) -> None:
        super().prepare(workload)
        self.sums = checks.window_sums(workload)

    def run_round(self, spans: SpanRecorder, traced: bool) -> Round:
        workload = self.workload
        rnd = Round(events=total_events(workload), wall_s=0.0,
                    traced=traced)
        start = time.perf_counter()
        try:
            if traced:
                result = self._staged(spans, rnd)
            else:
                result = api.run(
                    self.SCHEME, seed=self.seed, workload=workload,
                    queries=self.specs, **self.run_kwargs).result
                rnd.wall_s = time.perf_counter() - start
        except SimulationError as exc:
            rnd.wall_s = time.perf_counter() - start
            rnd.error = f"{type(exc).__name__}: {exc}"
            return rnd
        rnd.outputs = result
        rnd.net_bytes = result.total_bytes
        counts = rnd.counts
        counts.update(sim.result_counts([result]))
        owners = [a for a in result.queries.values()
                  if a["deduped_into"] is None]
        windows = sum(a["windows"] for a in owners)
        counts["core.multiquery.distinct_queries"] = len(owners)
        counts["core.multiquery.windows"] = sum(
            a["windows"] for a in result.queries.values())
        counts["core.multiquery.combines_per_window"] = (
            sum(a["combines"] for a in owners) / windows
            if windows else 0.0)
        return rnd

    def _staged(self, spans: SpanRecorder, rnd: Round) -> Any:
        """The traced round: the run staged through ``runtime.driver``
        with ``RunTracer`` on, then the same run without queries
        (un-timed) for the engine's share of the wall."""
        start = time.perf_counter()
        tracer = RunTracer()
        result, executed = sim.staged_run(
            self.config(queries=self.specs), self.workload, spans,
            tracer)
        rnd.wall_s = time.perf_counter() - start
        start = time.perf_counter()
        sim.staged_run(self.config(), self.workload,
                       SpanRecorder(enabled=False), RunTracer())
        bare_s = time.perf_counter() - start
        rnd.counts.update(sim.stage_counts(spans))
        rnd.counts["sim.kernel.events"] = executed
        rnd.counts["obs.events"] = len(tracer.events)
        rnd.counts["core.multiquery.run_share"] = \
            (rnd.wall_s - bare_s) / rnd.wall_s
        return result

    # -- reference ---------------------------------------------------------

    def _recompute(self, stream: str, label: str,
                   windows: int) -> tuple[str, float]:
        """One query alone on a private (unshared) pipeline over the
        prefix of its stream that holds exactly ``windows`` windows,
        plus a plain-numpy value for the last of them."""
        key = (stream, label, windows)
        if key not in self._private:
            agg, length, step = _window(label)
            events = self.workload.streams[int(stream.split("-")[1])]
            last = (windows - 1) * step
            engine = MultiQueryEngine(sharing=False)
            qid = engine.admit(stream, label, at=0)
            engine.append(stream, events.slice_range(0, last + length))
            value = float(_NUMPY_AGG[agg](
                events.values[last:last + length]))
            self._private[key] = (engine.account(qid).fingerprint,
                                  value)
        return self._private[key]

    def check(self, rnd: Round) -> None:
        n = self.sizes["n_windows"]
        workload = self.workload
        sample = random.Random(self.seed).sample(
            range(len(self.specs) * workload.n_nodes),
            min(SAMPLE, len(self.specs)))
        # Every node consumes at least its share of the last measured
        # window, so each sampled query owes at least the windows that
        # fit before that boundary.
        owed = []
        for k in sample:
            node, spec = divmod(k, len(self.specs))
            _agg, length, step = _window(self.specs[spec])
            consumed = int(workload.bounds[n, node])
            owed.append(max(0, (consumed - length) // step + 1))
        rnd.attempted = n + sum(owed)
        if rnd.error is not None:
            rnd.failed = rnd.attempted
            return
        result = rnd.outputs
        failed = checks.failed_against_sums(result, self.sums)
        for k, need in zip(sample, owed, strict=True):
            acct = result.queries.get(f"q{k}")
            if acct is None or acct["windows"] == 0:
                failed += need
                continue
            want_fp, want_last = self._recompute(
                acct["stream"], acct["label"], acct["windows"])
            if (acct["fingerprint"] != want_fp or not math.isclose(
                    acct["last_result"], want_last, rel_tol=1e-9,
                    abs_tol=1e-9)):
                failed += need
            else:
                failed += max(0, need - acct["windows"])
        rnd.failed = failed
