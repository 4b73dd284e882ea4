"""Tests for the parallel sweep executor and the workload cache.

The executor's contract is strict: parallel (``jobs>=2``) and serial
(``jobs=1``) executions of the same configs must produce *bit-identical*
metrics (each simulation stays single-threaded and seed-driven —
parallelism is across runs only), results come back in submission
order, and a sweep generates each distinct workload exactly once.
"""

import math

import numpy as np
import pytest

import repro.core.workload as wl
from repro.aggregates.registry import get_aggregate
from repro.analysis.determinism import TimedFingerprint
from repro.api import compare, compare_grid
from repro.core.runner import RunConfig
from repro.core.workload import WorkloadCache, WorkloadSpec
from repro.errors import ConfigurationError
from repro.streams.batch import EventBatch
from repro.sweep import JOBS_ENV, SweepExecutor, resolve_jobs


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Point the process-wide cache at a fresh spill directory."""
    path = tmp_path / "spill"
    monkeypatch.setenv(wl.SPILL_DIR_ENV, str(path))
    monkeypatch.setattr(wl, "_DEFAULT_CACHE", None)
    return path


def _tiny_configs():
    """A small two-scheme, two-point sweep that runs in well under a
    second per config."""
    kwargs = dict(n_nodes=2, window_size=800, n_windows=5,
                  rate_per_node=10_000.0)
    return [RunConfig(scheme=scheme, seed=seed, **kwargs)
            for scheme in ("central", "deco_async") for seed in (0, 1)]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_cpu_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        import os
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)


class TestSweepExecutor:
    def test_empty_sweep(self, spill_dir):
        assert SweepExecutor(jobs=1).run([]) == []

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial_bit_identical(self, spill_dir,
                                                   jobs):
        configs = _tiny_configs()
        serial = SweepExecutor(jobs=1).run(configs)
        parallel = SweepExecutor(jobs=jobs).run(configs)
        assert [TimedFingerprint.of(r) for r in serial] == \
            [TimedFingerprint.of(r) for r in parallel]

    def test_results_in_submission_order(self, spill_dir):
        configs = _tiny_configs()
        results = SweepExecutor(jobs=2).run(configs)
        assert [r.scheme for r in results] == \
            [c.scheme for c in configs]

    def test_sweep_generates_each_workload_once(self, tmp_path,
                                                monkeypatch):
        calls = {"n": 0}
        real = wl.generate_workload

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(wl, "generate_workload", counting)
        cache = WorkloadCache(spill_dir=tmp_path / "c")
        configs = _tiny_configs()  # 2 schemes x 2 seeds -> 2 workloads
        distinct = {c.workload_key() for c in configs}
        SweepExecutor(jobs=1, cache=cache).run(configs)
        assert calls["n"] == len(distinct) == 2
        assert cache.generated == 2
        # A second sweep over the same configs regenerates nothing.
        SweepExecutor(jobs=1, cache=cache).run(configs)
        assert calls["n"] == 2
        assert cache.memory_hits >= 2

    def test_shared_workload_object_across_schemes(self, spill_dir):
        pairs = SweepExecutor(jobs=1).run_with_workloads(
            _tiny_configs())
        by_seed = {}
        for (_result, workload), config in zip(pairs, _tiny_configs(),
                                              strict=True):
            by_seed.setdefault(config.seed, []).append(workload)
        for workloads in by_seed.values():
            assert all(w is workloads[0] for w in workloads)

    def test_worker_failure_propagates(self, spill_dir):
        bad = RunConfig(scheme="nope_not_registered", n_nodes=1,
                        window_size=200, n_windows=2,
                        rate_per_node=5_000.0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2).run([bad])


class TestCompareParallel:
    @pytest.mark.parametrize("jobs", [2])
    def test_compare_metrics_identical(self, spill_dir, jobs):
        kwargs = dict(n_nodes=2, window_size=800, n_windows=5,
                      rate_per_node=10_000.0)
        serial = compare(["central", "scotty"], jobs=1, **kwargs)
        parallel = compare(["central", "scotty"], jobs=jobs, **kwargs)
        for scheme in serial:
            a, b = serial[scheme], parallel[scheme]
            assert a.throughput == b.throughput
            assert a.correctness == b.correctness
            assert TimedFingerprint.of(a.result) == \
                TimedFingerprint.of(b.result)

    def test_compare_grid_orders_points(self, spill_dir):
        grids = compare_grid(
            ["central"], [{"n_nodes": 1}, {"n_nodes": 2}],
            window_size=600, n_windows=4, rate_per_node=10_000.0,
            jobs=2)
        assert [g["central"].result.n_nodes for g in grids] == [1, 2]

    def test_compare_shares_workload_across_schemes(self, spill_dir):
        results = compare(["central", "scotty"], n_nodes=2,
                          window_size=800, n_windows=5,
                          rate_per_node=10_000.0, jobs=2)
        assert results["central"].workload is results["scotty"].workload


class TestWorkloadCache:
    SPEC = WorkloadSpec(n_nodes=2, window_size=400, n_windows=4,
                        rate_per_node=10_000.0)

    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = WorkloadCache(spill_dir=tmp_path)
        first = cache.get(self.SPEC)
        second = cache.get(self.SPEC)
        assert first is second
        assert (cache.generated, cache.memory_hits) == (1, 1)

    def test_cache_hit_skips_generator(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = wl.generate_workload

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(wl, "generate_workload", counting)
        cache = WorkloadCache(spill_dir=tmp_path)
        generated = cache.get(self.SPEC)
        cache.get(self.SPEC)
        assert calls["n"] == 1
        # A fresh cache over the same spill dir maps the spill instead
        # of re-invoking the generator, and the workload is equal.
        cache2 = WorkloadCache(spill_dir=tmp_path)
        loaded = cache2.get(self.SPEC)
        assert calls["n"] == 1
        assert cache2.spill_hits == 1
        assert len(loaded.streams) == len(generated.streams)
        assert all(a == b for a, b in zip(loaded.streams,
                                          generated.streams,
                                          strict=True))
        assert np.array_equal(loaded.bounds, generated.bounds)
        assert np.array_equal(loaded.boundary_ts, generated.boundary_ts)

    def test_lru_eviction(self, tmp_path):
        cache = WorkloadCache(capacity=1, spill_dir=tmp_path)
        other = WorkloadSpec(n_nodes=1, window_size=300, n_windows=3,
                             rate_per_node=10_000.0)
        cache.get(self.SPEC)
        cache.get(other)  # evicts SPEC from memory
        cache.get(self.SPEC)  # reloaded from spill, not regenerated
        assert cache.generated == 2
        assert cache.spill_hits == 1

    def test_distinct_params_distinct_keys(self):
        base = self.SPEC
        for tweak in (dict(n_nodes=3), dict(window_size=401),
                      dict(n_windows=5), dict(rate_per_node=9_999.0),
                      dict(rate_change=0.5), dict(seed=1),
                      dict(margin=2.0), dict(streams_per_node=2),
                      dict(epoch_seconds=0.5)):
            import dataclasses
            assert dataclasses.replace(base, **tweak).key() != base.key()

    def test_clear_spill(self, tmp_path):
        cache = WorkloadCache(spill_dir=tmp_path)
        cache.get(self.SPEC)
        assert list(tmp_path.iterdir())
        # Stale files from older spill generations and crashed writers
        # are swept too — nothing the cache wrote may leak.
        (tmp_path / "wl1_deadbeef.wlm").write_bytes(b"legacy")
        (tmp_path / ".wlspill-abc123.wlm").write_bytes(b"crashed")
        cache.clear(spill=True)
        assert not list(tmp_path.iterdir())
        cache.get(self.SPEC)
        assert cache.generated == 2

    def test_ensure_spilled_respills_missing_file(self, tmp_path):
        """Regression: an in-memory LRU hit must not vouch for the
        spill file — ``ensure_spilled`` re-writes it when it has gone
        missing (e.g. a cleaned tmp dir), since workers will map the
        returned path."""
        cache = WorkloadCache(spill_dir=tmp_path)
        workload = cache.get(self.SPEC)  # generates + spills + caches
        path = cache.path(self.SPEC)
        assert path.exists()
        path.unlink()
        returned = cache.ensure_spilled(self.SPEC)
        assert returned == path
        assert path.exists(), \
            "ensure_spilled returned a path with no file behind it"
        reloaded = wl.load_workload_mmap(path)
        assert all(a == b for a, b in zip(reloaded.streams,
                                          workload.streams,
                                          strict=True))


class TestWorkerMemoLRU:
    """Regression: the worker-side workload memo must evict one LRU
    entry at a time, not wholesale-clear.  With a recency-biased access
    pattern over 6 distinct workloads and capacity 4, true LRU loads
    each spill file at most twice; the old clear-everything eviction
    reloaded a recently-used workload a third time."""

    def test_recency_biased_pattern_reloads_at_most_twice(
            self, tmp_path, monkeypatch):
        import repro.sweep as sweep_mod
        from collections import OrderedDict

        monkeypatch.setattr(sweep_mod, "_WORKER_WORKLOADS",
                            OrderedDict())
        loads = {}
        real = sweep_mod.load_workload_mmap

        def counting(path):
            loads[path] = loads.get(path, 0) + 1
            return real(path)

        monkeypatch.setattr(sweep_mod, "load_workload_mmap", counting)
        cache = WorkloadCache(spill_dir=tmp_path / "c", capacity=8)
        kwargs = dict(n_nodes=1, window_size=300, n_windows=2,
                      rate_per_node=5_000.0)
        # Fill the memo (seeds 0-3), overflow it (4), revisit warm
        # entries (2, 3), overflow again (5, 0), revisit 2 — which
        # stayed hot the whole time and must never need a third load.
        seed_order = [0, 1, 2, 3, 4, 2, 3, 5, 0, 2]
        paths = {}
        for seed in sorted(set(seed_order)):
            config = RunConfig(scheme="central", seed=seed, **kwargs)
            paths[seed] = str(
                cache.ensure_spilled(config.workload_key()))
        for seed in seed_order:
            config = RunConfig(scheme="central", seed=seed, **kwargs)
            out = sweep_mod._run_one(config, paths[seed])
            result = out[0] if isinstance(out, tuple) else out
            assert result.n_windows == 2
        assert len(sweep_mod._WORKER_WORKLOADS) <= \
            sweep_mod._WORKER_MEMO_CAPACITY
        worst = max(loads.values())
        assert worst <= 2, (
            f"a workload spill file was loaded {worst} times; "
            f"eviction is dropping recently-used entries: "
            f"{ {p.rsplit('/', 1)[-1]: n for p, n in loads.items()} }")


class TestRunConfigWorkloadKey:
    def test_equal_workload_params_equal_key(self):
        a = RunConfig(scheme="central", n_nodes=2, window_size=500,
                      n_windows=4)
        b = RunConfig(scheme="deco_async", n_nodes=2, window_size=500,
                      n_windows=4, aggregate="avg", delta_m=8)
        # Scheme/aggregate/prediction params don't affect the workload.
        assert a.workload_key() == b.workload_key()

    def test_workload_params_change_key(self):
        a = RunConfig(scheme="central", n_nodes=2, window_size=500,
                      n_windows=4)
        b = RunConfig(scheme="central", n_nodes=2, window_size=500,
                      n_windows=4, seed=9)
        assert a.workload_key() != b.workload_key()


class TestVectorizedLifts:
    """The vectorized lift kernels must match the scalar path."""

    NAMES = ("sum", "count", "min", "max", "avg", "variance")

    @staticmethod
    def _random_batch(rng, n):
        return EventBatch(
            np.arange(n, dtype=np.int64),
            rng.normal(10.0, 5.0, size=n),
            np.sort(rng.integers(0, 1_000_000, size=n)))

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_lift_matches_scalar_path(self, name, n):
        rng = np.random.default_rng(42 + n)
        fn = get_aggregate(name)
        batch = self._random_batch(rng, n)
        fast = fn.lower(fn.lift(batch))
        slow = fn.lower(fn.scalar_lift(batch))
        if math.isnan(fast):
            assert math.isnan(slow)
        elif math.isinf(fast):
            assert fast == slow
        else:
            assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("name", ("min", "max", "count"))
    def test_exact_kernels_bit_identical(self, name):
        rng = np.random.default_rng(7)
        fn = get_aggregate(name)
        batch = self._random_batch(rng, 257)
        assert fn.lower(fn.lift(batch)) == \
            fn.lower(fn.scalar_lift(batch))

    def test_integer_sums_exact(self):
        rng = np.random.default_rng(11)
        fn = get_aggregate("sum")
        batch = EventBatch(
            np.arange(500, dtype=np.int64),
            rng.integers(-100, 100, size=500).astype(np.float64),
            np.arange(500, dtype=np.int64))
        assert fn.lift(batch) == fn.scalar_lift(batch)


class TestKernelPendingCounter:
    def test_pending_tracks_schedule_cancel_run(self):
        from repro.sim.kernel import Simulator

        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None)
                   for i in range(5)]
        assert sim.pending() == 5
        handles[0].cancel()
        handles[0].cancel()  # idempotent: no double decrement
        assert sim.pending() == 4
        sim.run()
        assert sim.pending() == 0
        # Late cancel on an executed handle must not go negative.
        handles[3].cancel()
        assert sim.pending() == 0
