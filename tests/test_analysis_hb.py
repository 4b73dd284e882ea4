"""Happens-before trace analysis: vector clocks over serve traces.

Synthetic traces exercise each violation kind in isolation; model
traces from the epoch runtime anchor the analyzer on real event
streams (clean run → ok, the drop-phase merge mutant → merge-order
violations);
a JSONL round-trip covers the on-disk path used by
``repro check --trace``.
"""

import pytest

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.check import small_config
from repro.analysis.explore import ModelCoordinator, _Schedule
from repro.analysis.hb import (analyze_events, analyze_jsonl,
                               applied_key, load_jsonl)
from repro.obs.events import (COORD_PROCESS, FRAME_RECV, FRAME_SEND,
                              OP_APPLY, OP_EMIT, TraceEvent)
from repro.obs.tracer import RunTracer
from repro.serve.harness import _merge_trace
from repro.serve.merge import EpochMerge
from tests.mutants import drop_phase_pop_next, phase_inversion_trace


def model_trace(config):
    """One traced reference-interleaving model run, worker traces
    merged in (what ``repro trace --runtime serve`` would capture)."""
    tracer = RunTracer()
    coord = ModelCoordinator(config, tracer)
    coord.run_model(_Schedule(()))
    _merge_trace(tracer, coord.finals)
    return tracer


def ev(kind, t, node, **data):
    return TraceEvent(kind, t, node, 0.0, data)


def apply_data(seq, *, src="w0", ref="slot:0", epoch=0, kt=0.1, kp=0,
               kr="a", kc=0, kb="0", windows=""):
    return dict(seq=seq, src=src, ref=ref, epoch=epoch, kt=kt, kp=kp,
                kr=kr, kc=kc, kb=kb, windows=windows)


def kinds(report):
    return sorted({v.kind for v in report.violations})


class TestAppliedKey:
    def test_round_trip(self):
        data = apply_data(1, kt=0.25, kp=1, kr="a,b", kc=1, kb="2,3")
        assert applied_key(data) == (0.25, 1, ("a", "b"), 1, (2, 3))

    def test_empty_rank(self):
        assert applied_key(apply_data(1, kr="", kb="0"))[2] == ()


class TestSyntheticTraces:
    def test_causally_wired_trace_is_clean(self):
        events = [
            ev(OP_EMIT, 0.1, "w0", seq=1, ref="slot:0", epoch=0,
               windows="0"),
            ev(FRAME_SEND, 0.1, "w0", seq=2, fseq=0,
               dst=COORD_PROCESS, fkind=5),
            ev(FRAME_RECV, 0.1, COORD_PROCESS, seq=1, fseq=0,
               edge="w0", fkind=5),
            ev(OP_APPLY, 0.1, COORD_PROCESS,
               **apply_data(2, windows="0")),
        ]
        report = analyze_events(events)
        assert report.ok, [str(v) for v in report.violations]
        assert report.n_frames == 1
        assert report.processes == [COORD_PROCESS, "w0"]

    def test_merge_order_inversion(self):
        # epoch=-1 keeps the emit-matching check out of the way; the
        # inversion itself is the single defect under test.
        events = [
            ev(OP_APPLY, 0.2, COORD_PROCESS,
               **apply_data(1, epoch=-1, kt=0.2, kb="0")),
            ev(OP_APPLY, 0.2, COORD_PROCESS,
               **apply_data(2, epoch=-1, kt=0.1, kb="1")),
        ]
        assert kinds(analyze_events(events)) == ["merge-order"]

    def test_apply_without_emit(self):
        events = [ev(OP_APPLY, 0.1, COORD_PROCESS, **apply_data(1))]
        assert kinds(analyze_events(events)) == ["apply-without-emit"]

    def test_apply_before_emit(self):
        # The emit exists but no frame edge connects it to the apply:
        # the batch was applied without the causal chain that produced
        # it.
        events = [
            ev(OP_EMIT, 0.1, "w0", seq=1, ref="slot:0", epoch=0),
            ev(OP_APPLY, 0.1, COORD_PROCESS, **apply_data(1)),
        ]
        assert kinds(analyze_events(events)) == ["apply-before-emit"]

    def test_concurrent_window_write(self):
        events = [
            ev(OP_EMIT, 0.1, "w0", seq=1, ref="slot:0", epoch=0,
               windows="3"),
            ev(OP_EMIT, 0.1, "w1", seq=1, ref="slot:1", epoch=0,
               windows="3"),
        ]
        assert kinds(analyze_events(events)) == \
            ["concurrent-window-write"]

    def test_same_process_window_writes_pass(self):
        events = [
            ev(OP_EMIT, 0.1, "w0", seq=1, ref="slot:0", epoch=0,
               windows="3"),
            ev(OP_EMIT, 0.2, "w0", seq=2, ref="slot:1", epoch=0,
               windows="3"),
        ]
        assert analyze_events(events).ok

    def test_missing_send(self):
        events = [ev(FRAME_RECV, 0.1, COORD_PROCESS, seq=1, fseq=9,
                     edge="w0", fkind=5)]
        assert kinds(analyze_events(events)) == ["missing-send"]

    def test_duplicate_frame(self):
        events = [
            ev(FRAME_SEND, 0.1, "w0", seq=1, fseq=0,
               dst=COORD_PROCESS, fkind=5),
            ev(FRAME_SEND, 0.2, "w0", seq=2, fseq=0,
               dst=COORD_PROCESS, fkind=5),
        ]
        assert kinds(analyze_events(events)) == ["duplicate-frame"]

    def test_non_causal_events_are_ignored(self):
        events = [ev("msg_send", 0.1, "w0", dst="root", msg="X")]
        report = analyze_events(events)
        assert report.ok
        assert report.n_events == 0


class TestModelTraces:
    def test_clean_epoch_run_is_ok(self):
        report = analyze_events(
            model_trace(small_config("deco_sync", 2)).events)
        assert report.ok, [str(v) for v in report.violations]
        assert COORD_PROCESS in report.processes
        assert report.n_frames > 0

    def test_seeded_bug_shows_merge_order_violations(self, monkeypatch):
        # A real run ships only PHASE_PROTOCOL timers, so the phase
        # decides only in the hand-built epoch of the canary trace.
        config = small_config("deco_sync", 2)
        assert analyze_events(phase_inversion_trace(config).events).ok
        monkeypatch.setattr(EpochMerge, "pop_next", drop_phase_pop_next)
        report = analyze_events(phase_inversion_trace(config).events)
        assert "merge-order" in kinds(report)


class TestJsonl:
    def test_round_trip_preserves_analysis(self, tmp_path):
        from repro.obs.exporters import write_jsonl
        tracer = model_trace(small_config("deco_sync", 2))
        path = tmp_path / "run.jsonl"
        write_jsonl(path, tracer)
        loaded = load_jsonl(path)
        direct = analyze_events(tracer.events)
        from_disk = analyze_jsonl(path)
        assert len(loaded) == len(tracer.events)
        assert from_disk.ok == direct.ok
        assert from_disk.n_events == direct.n_events
        assert from_disk.n_frames == direct.n_frames

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "op_emit", "t": 0.1, "node": "w0"}\n'
            'not json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_missing_field_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "op_emit"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_jsonl(path)
