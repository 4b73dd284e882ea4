"""Protocol FSM checker: declared machines vs traced message flows."""

import pytest

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.fsm import (SCHEME_FSMS, ProtocolViolation,
                                assert_fsm_conformance, check_fsm,
                                extract_token_streams)
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import default_cache
from repro.obs.events import MSG_SEND
from repro.obs.tracer import RunTracer

SMALL = dict(n_nodes=3, window_size=1_200, n_windows=4,
             rate_per_node=30_000.0, rate_change=0.05)


def traced_run(scheme, workload, **over):
    tracer = RunTracer()
    run_scheme(RunConfig(scheme=scheme, **{**SMALL, **over}),
               workload, tracer)
    return tracer


@pytest.fixture(scope="module")
def workload():
    return default_cache().get(
        RunConfig(scheme="central", **SMALL).workload_key())


def synthetic_tracer(tokens):
    """Build a tracer whose msg_send stream yields ``tokens`` for one
    root<->local-0 pair."""
    tracer = RunTracer()
    for i, (direction, msg) in enumerate(tokens):
        if direction == "up":
            src, dst = "local-0", "root"
        elif direction == "down":
            src, dst = "root", "local-0"
        else:
            src, dst = "local-0", "local-1"
        tracer.event(MSG_SEND, float(i), src, dst=dst, msg=msg)
    return tracer


class TestExtraction:
    def test_directions_and_pairs(self):
        tracer = synthetic_tracer([("up", "RawEvents"),
                                   ("down", "WindowAssignment"),
                                   ("peer", "RateReport")])
        streams = extract_token_streams(tracer)
        assert set(streams) == {"local-0"}
        assert [t for t, _ in streams["local-0"]] == [
            ("up", "RawEvents"), ("down", "WindowAssignment"),
            ("peer", "RateReport")]


class TestDeclaredMachines:
    def test_every_scheme_has_a_machine(self):
        from repro.core.runner import available_schemes
        assert set(SCHEME_FSMS) >= set(available_schemes())

    def test_initial_states_exist(self):
        for fsm in SCHEME_FSMS.values():
            assert fsm.initial in fsm.transitions, fsm.scheme
            for state_transitions in fsm.transitions.values():
                for target in state_transitions.values():
                    assert target in fsm.transitions, fsm.scheme


class TestConformance:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_FSMS))
    def test_traced_run_conforms(self, scheme, workload):
        tracer = traced_run(scheme, workload)
        assert tracer.events_of(MSG_SEND), "run must actually trace"
        assert check_fsm(scheme, tracer) == []

    def test_paced_run_conforms(self, workload):
        tracer = traced_run("deco_sync", workload, saturated=False)
        assert check_fsm("deco_sync", tracer) == []


class TestEpochServeConformance:
    """Serve runs obey the same per-scheme protocol FSMs.

    The concurrent epoch runtime reorders *execution*, never protocol
    *content*: the merged trace of a serve run must drive each FSM
    exactly like the simulator traces above.  Model traces (the
    in-process epoch runtime from :mod:`repro.analysis.explore`) cover
    every scheme cheaply; one real TCP serve run anchors the claim on
    the wire path.
    """

    @pytest.mark.parametrize("scheme", sorted(SCHEME_FSMS))
    def test_epoch_model_trace_conforms(self, scheme):
        from repro.analysis.check import small_config
        from tests.test_analysis_hb import model_trace
        tracer = model_trace(small_config(scheme, 3))
        assert tracer.events_of(MSG_SEND), "run must actually trace"
        assert check_fsm(scheme, tracer) == []

    def test_epoch_tcp_serve_trace_conforms(self):
        from repro.obs.tracer import RunTracer
        from repro.serve.harness import run_scheme_served
        tracer = RunTracer()
        run_scheme_served(
            RunConfig(scheme="deco_sync", n_nodes=2, window_size=400,
                      n_windows=3, rate_per_node=20_000.0, seed=7),
            tracer=tracer)
        assert tracer.events_of(MSG_SEND)
        assert check_fsm("deco_sync", tracer) == []


class TestViolations:
    def test_wrong_message_class_flagged(self):
        # Central never sends window assignments.
        tracer = synthetic_tracer([("up", "RawEvents"),
                                   ("down", "WindowAssignment")])
        violations = check_fsm("central", tracer)
        assert len(violations) == 1
        v = violations[0]
        assert v.token == ("down", "WindowAssignment")
        assert v.state == "RUN"
        assert "WindowAssignment" in v.format()

    def test_out_of_phase_message_flagged(self):
        # deco_sync: a correction report without a correction request.
        tracer = synthetic_tracer([("up", "RawEvents"),
                                   ("down", "WindowAssignment"),
                                   ("up", "CorrectionReport")])
        violations = check_fsm("deco_sync", tracer)
        assert [v.token for v in violations] == [
            ("up", "CorrectionReport")]

    def test_assert_raises_with_positions(self):
        tracer = synthetic_tracer([("up", "FrontBuffer")])
        with pytest.raises(ProtocolViolation, match="FrontBuffer"):
            assert_fsm_conformance("central", tracer)

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            check_fsm("nope", RunTracer())

    def test_violation_does_not_cascade(self):
        # One stray message then a legal stream: only one violation.
        tracer = synthetic_tracer([("down", "CorrectionRequest"),
                                   ("up", "RawEvents"),
                                   ("up", "RawEvents")])
        assert len(check_fsm("central", tracer)) == 1
