"""Parallel sweep executor for independent scheme runs.

Every figure of the evaluation is a *sweep*: several schemes times
several configurations, each an independent, single-threaded,
seed-deterministic simulation.  :class:`SweepExecutor` exploits that
embarrassingly parallel structure by fanning :class:`RunConfig`s out
over a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping
the results bit-identical to a serial run:

* Each simulation stays single-threaded and seed-driven — parallelism
  is purely across runs, so per-run determinism is untouched.
* Results return in deterministic submission order (never completion
  order).
* Workloads are pre-generated once per distinct parameter tuple via the
  content-addressed cache in :mod:`repro.core.workload` and shipped to
  workers as ``.wlm`` spill paths, so a 7-scheme sweep generates each
  multi-million-event workload once instead of 7 times, pickling none.

``jobs`` resolves from the explicit argument, then the ``REPRO_JOBS``
environment variable, then ``os.cpu_count()``.  ``jobs=1`` bypasses the
process pool entirely and runs in-process, so a sweep stays trivially
debuggable (breakpoints, pdb, exceptions with full local state).

Standing queries sweep too: a :class:`RunConfig` with ``queries`` set
admits those specs on every local stream, and each result carries the
per-query accounts (``RunResult.queries``).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Sequence

from repro.core.records import RunResult
from repro.core.runner import RunConfig, get_scheme, run_scheme
from repro.core.workload import (Workload, WorkloadCache, WorkloadSpec,
                                 default_cache, load_workload_mmap)
from repro.errors import ConfigurationError
from repro.obs.summary import TraceSummary
from repro.obs.tracer import RunTracer

#: Environment variable setting the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count: argument > ``$REPRO_JOBS`` > CPUs."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{JOBS_ENV} must be an integer, "
                    f"got {env!r}") from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


#: Per-worker memo of spilled workloads, so a worker that runs several
#: schemes over the same workload maps the spill once.  Ordered by
#: recency of use: eviction removes only the least-recently-used entry,
#: so the workloads a worker keeps cycling through stay resident.
# Deliberate per-worker cache: keyed by spill path, holding immutable
# workloads — a hit returns bit-identical data to a regeneration, so
# sharing across runs cannot change results.
_WORKER_WORKLOADS: "OrderedDict[str, Workload]" = OrderedDict()
_WORKER_MEMO_CAPACITY = 4


def _run_one(config: RunConfig,
             payload: str | Workload
             ) -> tuple[RunResult, TraceSummary | None]:
    """Worker entry point: run one config over a shipped workload.

    ``payload`` is a spill-file path in a pool worker (it maps the
    pre-generated workload instead of regenerating it) and the
    in-memory :class:`Workload` itself on the in-process serial path.

    Returns the run result plus a picklable
    :class:`~repro.obs.summary.TraceSummary` when ``config.trace`` is
    set (full event lists stay worker-side; only the rollup ships back).
    """
    if isinstance(payload, str):
        workload = _WORKER_WORKLOADS.get(payload)
        if workload is None:
            workload = load_workload_mmap(payload)
            while len(_WORKER_WORKLOADS) >= _WORKER_MEMO_CAPACITY:
                _WORKER_WORKLOADS.popitem(last=False)
            _WORKER_WORKLOADS[payload] = workload
        else:
            _WORKER_WORKLOADS.move_to_end(payload)
    else:
        workload = payload
    tracer = RunTracer() if config.trace else None
    result, _ = run_scheme(config, workload, tracer)
    summary = (TraceSummary.from_tracer(tracer, scheme=config.scheme)
               if tracer is not None else None)
    return result, summary


class SweepExecutor:
    """Run independent :class:`RunConfig`s, in parallel when asked.

    Args:
        jobs: Worker processes; ``None`` resolves via ``$REPRO_JOBS``
            then ``os.cpu_count()``.  ``1`` runs serially in-process.
        cache: Workload cache to pre-generate and share workloads
            through; defaults to the process-wide cache.
    """

    def __init__(self, jobs: int | None = None,
                 cache: WorkloadCache | None = None):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache if cache is not None else default_cache()
        #: Per-config trace rollups of the last sweep, aligned with the
        #: submitted configs (``None`` for untraced runs).  Merge with
        #: :func:`repro.obs.summary.merge_summaries` for a fleet view.
        self.trace_summaries: list[TraceSummary | None] = []

    def run(self, configs: Sequence[RunConfig]) -> list[RunResult]:
        """Run every config; results in submission order."""
        return [result for result, _ in self.run_with_workloads(configs)]

    def run_with_workloads(
            self, configs: Sequence[RunConfig]
    ) -> list[tuple[RunResult, Workload]]:
        """Run every config; returns ``(result, workload)`` pairs in
        submission order.

        The workload of each pair is the parent-process cached object
        (shared across configs with equal :meth:`RunConfig.workload_key`),
        which the metrics layer needs for correctness/latency.
        """
        configs = list(configs)
        self.trace_summaries = []
        if not configs:
            return []
        # Fail fast on typo'd scheme names before spending seconds
        # generating workloads (and before forking workers).
        for config in configs:
            get_scheme(config.scheme)
        # Generate each distinct workload exactly once, up front.
        workloads: dict[WorkloadSpec, Workload] = {}
        for config in configs:
            spec = config.workload_key()
            if spec not in workloads:
                workloads[spec] = self.cache.get(spec)
        if self.jobs == 1 or len(configs) == 1:
            out: list[tuple[RunResult, Workload]] = []
            for config in configs:
                workload = workloads[config.workload_key()]
                result, summary = _run_one(config, workload)
                self.trace_summaries.append(summary)
                out.append((result, workload))
            return out
        # Ship workloads as spill paths: workers memmap the shared
        # file — one page-cache copy for all of them.
        payloads = {spec: str(self.cache.ensure_spilled(spec))
                    for spec in workloads}
        max_workers = min(self.jobs, len(configs))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_run_one, config,
                            payloads[config.workload_key()])
                for config in configs]
            results = []
            for future in futures:
                result, summary = future.result()
                results.append(result)
                self.trace_summaries.append(summary)
        return [(result, workloads[config.workload_key()])
                for result, config in zip(results, configs,
                                          strict=True)]
