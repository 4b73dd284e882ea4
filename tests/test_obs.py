"""Tests for the observability layer (:mod:`repro.obs`).

The two load-bearing guarantees:

* **Zero interference** — a traced run produces a bit-identical
  :class:`RunResult` (same outcomes, bytes, messages, retransmissions,
  same fault-injector RNG draws) as an untraced run, because tracing
  only observes.
* **Valid exports** — the Chrome trace-event output round-trips through
  ``json`` and keeps every per-node track monotone in time.
"""

import json

import pytest

import repro.baselines  # noqa: F401
from repro.analysis.determinism import TimedFingerprint
from repro.api import run
from repro.core.runner import RunConfig, run_scheme
from repro.obs import (CPU, MSG_DROP, MSG_RECV, MSG_RETRANSMIT,
                       MSG_SEND, QUEUE, STATE, WINDOW, NullTracer,
                       RunTracer, event_to_dict,
                       summary_table, to_chrome_trace,
                       write_chrome_trace, write_jsonl)
from repro.runtime.driver import build_run, run_simulation
from repro.sim import MessageFaultInjector


def _config(scheme, **overrides):
    base = dict(scheme=scheme, n_nodes=2, window_size=2_000,
                n_windows=8, rate_per_node=20_000.0, rate_change=0.05,
                seed=3, delta_m=4, min_delta=2)
    base.update(overrides)
    return RunConfig(**base)


def _traced(scheme, **overrides):
    config = _config(scheme, **overrides)
    tracer = RunTracer()
    result, _ = run_scheme(config, tracer=tracer)
    return result, tracer


class TestZeroInterference:
    @pytest.mark.parametrize("scheme", ["deco_sync", "deco_async",
                                        "deco_mon", "central"])
    def test_traced_run_bit_identical(self, scheme):
        config = _config(scheme)
        baseline, workload = run_scheme(config)
        tracer = RunTracer()
        traced, _ = run_scheme(config, workload=workload, tracer=tracer)
        assert TimedFingerprint.of(baseline) == TimedFingerprint.of(traced)
        assert len(tracer.events) > 0

    def test_traced_fault_run_identical_rng_draws(self):
        """Tracing must not perturb the fault injector's RNG stream."""
        runs = []
        for trace in (False, True):
            config = _config("deco_sync", retransmit_timeout_s=0.02)
            tracer = RunTracer() if trace else None
            topo, ctx = build_run(config, tracer=tracer)
            injector = MessageFaultInjector(
                topo, drop_probability=0.2, seed=5)
            run_simulation(topo, ctx, config.resolved_batch_size(),
                           config.saturated)
            runs.append((injector.stats.dropped, injector.stats.delayed,
                         TimedFingerprint.of(ctx.result)))
        assert runs[0] == runs[1]


class TestTracerRecording:
    def test_null_tracer_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.event("x", 0.0, "n")
        tracer.inc("c")
        tracer.gauge("g", "n", 1.0)  # all no-ops, nothing to assert on

    def test_expected_event_kinds_present(self):
        _, tracer = _traced("deco_sync")
        kinds = tracer.counts_by_kind()
        for kind in (MSG_SEND, MSG_RECV, CPU, QUEUE, WINDOW, STATE):
            assert kinds.get(kind, 0) > 0, kind
        windows = tracer.events_of(WINDOW)
        assert [e.data["window"] for e in windows] == list(range(8))

    def test_counters_match_result_accounting(self):
        result, tracer = _traced("deco_sync")
        sent = sum(tracer.counters_named("messages_sent").values())
        assert sent == result.messages
        emitted = tracer.counter("windows_emitted", "root")
        assert emitted == result.n_windows

    def test_retransmit_events_on_fault_run(self):
        config = _config("deco_sync", retransmit_timeout_s=0.02)
        tracer = RunTracer()
        topo, ctx = build_run(config, tracer=tracer)
        MessageFaultInjector(topo, drop_probability=0.2, seed=5)
        run_simulation(topo, ctx, config.resolved_batch_size(),
                       config.saturated)
        assert ctx.result.retransmissions > 0
        retrans = tracer.events_of(MSG_RETRANSMIT)
        assert len(retrans) == ctx.result.retransmissions
        assert sum(tracer.counters_named(
            "retransmissions").values()) == ctx.result.retransmissions
        assert len(tracer.events_of(MSG_DROP)) > 0

    def test_nodes_sorted_root_first(self):
        _, tracer = _traced("deco_sync")
        nodes = tracer.nodes()
        assert nodes[0] == "root"
        assert nodes[1:] == sorted(nodes[1:])

    def test_gauges_track_last_and_max(self):
        tracer = RunTracer()
        for value in (1, 5, 2):
            tracer.gauge("queue_depth", "n", value)
        assert tracer.gauges[("queue_depth", "n")] == (2, 5)


class TestChromeExporter:
    def test_round_trips_through_json(self):
        _, tracer = _traced("deco_sync")
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["scheme"] == "deco_sync"

    def test_per_node_timestamps_monotone(self):
        _, tracer = _traced("deco_async")
        doc = to_chrome_trace(tracer)
        last = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            tid = event["tid"]
            assert event["ts"] >= last.get(tid, 0.0)
            last[tid] = event["ts"]

    def test_phases_and_metadata(self):
        _, tracer = _traced("deco_sync")
        doc = to_chrome_trace(tracer)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases
        names = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in names} == set(tracer.nodes())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] > 0 for e in spans)

    def test_write_chrome_trace_file(self, tmp_path):
        _, tracer = _traced("deco_sync")
        path = write_chrome_trace(tmp_path / "t.json", tracer)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > len(tracer.events)  # + metadata


class TestJsonlExporter:
    def test_one_line_per_event(self, tmp_path):
        _, tracer = _traced("deco_sync")
        path = tmp_path / "t.jsonl"
        count = write_jsonl(path, tracer)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.events)
        first = json.loads(lines[0])
        assert {"kind", "t", "node"} <= set(first)

    def test_event_to_dict_numpy_safe(self):
        import numpy as np
        from repro.obs import TraceEvent
        event = TraceEvent("msg_send", 1.0, "n",
                           data={"size": np.int64(7)})
        assert json.dumps(event_to_dict(event))


class TestSummaries:
    def test_summary_table(self):
        _, tracer = _traced("deco_sync")
        table = summary_table(tracer)
        assert "root" in table and "max queue" in table


class TestApiAndCli:
    def test_api_trace_attaches_tracer(self):
        plain = run("deco_sync", n_nodes=2, window_size=1_000,
                    n_windows=6, rate_per_node=20_000.0, seed=1)
        tracer = RunTracer()
        traced = run("deco_sync", n_nodes=2, window_size=1_000,
                     n_windows=6, rate_per_node=20_000.0, seed=1,
                     tracer=tracer)
        assert tracer.events
        assert tracer.meta["scheme"] == "deco_sync"
        assert traced.throughput == plain.throughput
        assert traced.result.total_bytes == plain.result.total_bytes

    def test_cli_trace_jsonl_format(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.jsonl"
        code = main(["run", "central", "--nodes", "1",
                     "--window", "500", "--windows", "4",
                     "--rate", "10000", "--trace", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)
        printed = capsys.readouterr().out
        assert "max queue" in printed  # per-node summary table
        assert f"{len(lines)} events" in printed

    def test_cli_run_trace_flag(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "run.json"
        code = main(["run", "deco_sync", "--nodes", "2",
                     "--window", "1000", "--windows", "6",
                     "--rate", "20000", "--trace", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        printed = capsys.readouterr().out
        assert "max queue" in printed  # per-node summary table
        assert "perfetto" in printed.lower()
