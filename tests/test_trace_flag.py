"""A trace is requested one way: pass a ``RunTracer`` as ``tracer``.

There is no ``trace`` flag on the config, on :func:`repro.api.run` or
on the summary, and no bool-to-tracer coercion.  Tracing only
observes: on both drivers a traced run's :class:`TimedFingerprint`
equals the untraced run's.
"""

from dataclasses import fields

import pytest

import repro.baselines  # noqa: F401
from repro.analysis.determinism import TimedFingerprint
from repro.api import run
from repro.core.runner import RunConfig, make_context
from repro.obs.tracer import NULL_TRACER, RunTracer
from repro.runtime.driver import build_run
from repro.serve import run_scheme_served
from repro.serve.worker import WorkerRuntime

TINY = dict(n_nodes=2, window_size=400, n_windows=3,
            rate_per_node=20_000.0, seed=7)


class TestResolveTracer:
    """How a run resolves the tracer that records it: ``None`` is the
    null tracer, a :class:`RunTracer` is used as given, and a serve
    worker told it is traced builds its own."""

    def test_false_and_none_mean_off(self):
        _, ctx = make_context(RunConfig(scheme="central", **TINY))
        assert ctx.tracer is NULL_TRACER
        worker = WorkerRuntime("local-0", RunConfig(scheme="central",
                                                    **TINY))
        assert worker.tracer is NULL_TRACER

    def test_true_makes_fresh_tracer(self):
        config = RunConfig(scheme="central", **TINY)
        first = WorkerRuntime("local-0", config, traced=True)
        second = WorkerRuntime("local-1", config, traced=True)
        assert isinstance(first.tracer, RunTracer)
        assert first.tracer is not second.tracer

    def test_existing_tracer_passes_through(self):
        tracer = RunTracer()
        topo, ctx = build_run(RunConfig(scheme="central", **TINY),
                              tracer=tracer)
        assert ctx.tracer is tracer
        assert topo.sim.tracer is tracer

    @pytest.mark.parametrize("bad", [1, 0, "yes", "", [], object()])
    def test_other_values_raise(self, bad):
        # ``trace=`` is no longer a keyword anywhere: whatever its
        # value, it is refused instead of silently meaning "off".
        with pytest.raises(TypeError):
            run("central", trace=bad, **TINY)

    def test_error_names_offending_type(self):
        with pytest.raises(TypeError, match="'trace'"):
            RunConfig(scheme="central", trace=True)


class TestApiIntegration:
    def test_truthy_int_rejected_before_running(self):
        # The removed ``trace=`` keyword reaches RunConfig, which has
        # no such field: it fails before anything runs.
        assert "trace" not in {f.name for f in fields(RunConfig)}
        with pytest.raises(TypeError, match="trace"):
            run("central", n_nodes=1, window_size=200, n_windows=1,
                rate_per_node=5_000.0, trace=1)

    def test_collect_into_existing_tracer(self):
        tracer = RunTracer()
        summary = run("central", n_nodes=1, window_size=200,
                      n_windows=1, rate_per_node=5_000.0, tracer=tracer)
        assert not hasattr(summary, "trace")
        assert tracer.events


class TestTracingChangesNoResult:
    @pytest.mark.parametrize("scheme", ["central", "deco_sync",
                                        "deco_async"])
    @pytest.mark.parametrize("mode", ["throughput", "latency"])
    def test_sim(self, scheme, mode):
        # Six windows: a paced summary skips three bootstrap windows.
        sizes = {**TINY, "n_windows": 6}
        plain = run(scheme, mode=mode, **sizes)
        tracer = RunTracer()
        traced = run(scheme, mode=mode, workload=plain.workload,
                     tracer=tracer, **sizes)
        assert tracer.events
        assert (TimedFingerprint.of(traced.result)
                == TimedFingerprint.of(plain.result))

    @pytest.mark.parametrize("scheme", ["central", "deco_async"])
    def test_serve(self, scheme):
        config = RunConfig(scheme=scheme, **TINY)
        plain = run_scheme_served(config)
        tracer = RunTracer()
        traced = run_scheme_served(config, tracer)
        assert tracer.meta["runtime"] == "serve"
        assert {e.kind for e in tracer.events} >= {"window", "msg_send"}
        assert (TimedFingerprint.of(traced.result)
                == TimedFingerprint.of(plain.result))
