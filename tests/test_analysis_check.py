"""The epoch interleaving model checker and the ``repro check`` CLI.

Covers the three tentpole claims: synthetic merge scenarios exercise
the real :class:`~repro.serve.merge.EpochMerge` under every arrival
permutation; the scripted DFS exhaustively verifies that epoch-mode
serve merges to kernel-canonical order for real schemes at small
scope; and the ``drop-phase`` merge mutant (:mod:`tests.mutants`) is
caught — the checker's own regression canary.
"""

from dataclasses import replace

import pytest

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.check import main, small_config
from repro.analysis.explore import (ModelCoordinator, _Schedule,
                                    check_applied_order,
                                    explore_config,
                                    synthetic_merge_violations)
from repro.analysis.determinism import TimedFingerprint
from repro.core.runner import run_scheme
from tests.mutants import BY_NAME, install, phase_inversion_log


@pytest.fixture
def drop_phase(monkeypatch):
    """Install the drop-phase merge mutant for one test."""
    install(BY_NAME["drop-phase"], monkeypatch)


class TestSyntheticScenarios:
    def test_clean_merge_has_no_violations(self):
        assert synthetic_merge_violations() == []

    def test_drop_phase_bug_is_caught(self, drop_phase):
        violations = synthetic_merge_violations()
        assert violations
        assert any("phase" in v for v in violations)


class TestAppliedOrder:
    def test_sorted_log_passes(self):
        log = [("a", (0.1, 0, ("a",), 0, (0,))),
               ("b", (0.1, 1, ("b",), 0, (1,))),
               ("a", (0.2, 0, ("a",), 1, (0, 0)))]
        assert check_applied_order(log) is None

    def test_inversion_is_flagged(self):
        log = [("a", (0.2, 0, ("a",), 0, (0,))),
               ("b", (0.1, 0, ("b",), 0, (1,)))]
        assert check_applied_order(log) is not None

    def test_duplicate_key_is_flagged(self):
        key = (0.1, 0, ("a",), 0, (0,))
        assert check_applied_order([("a", key), ("b", key)]) \
            is not None


class TestModelCoordinator:
    def test_model_run_matches_simulator_oracle(self):
        config = small_config("deco_sync", 2)
        oracle = TimedFingerprint.of(run_scheme(config, None)[0])
        coord = ModelCoordinator(config)
        coord.run_model(_Schedule(()))
        from repro.serve.harness import _merge_results
        assert TimedFingerprint.of(_merge_results(coord)) == oracle
        assert check_applied_order(coord.applied_log) is None

    def test_model_runs_the_production_loop(self):
        # The checker must exercise production code: the only methods
        # it may replace are the two interleaving choice points.
        for name in ("run", "_epoch_loop", "_collect_epoch",
                     "_merge_epoch", "_apply_ops", "_rpc", "_send",
                     "_recv"):
            assert name not in vars(ModelCoordinator), name
        assert {"_pick_horizon", "_reply_order"} <= \
            set(vars(ModelCoordinator))

    def test_paced_config_is_explored_without_sleeping(
            self, monkeypatch):
        import time

        def no_sleep(delay):
            raise AssertionError(f"model run slept {delay}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        config = replace(small_config("deco_sync", 2),
                         saturated=False)
        violations, stats = explore_config(config, epochs=1, budget=6)
        assert violations == []
        assert stats["runs"] > 1


class TestExplore:
    def test_small_scope_is_clean(self):
        config = small_config("deco_sync", 2)
        violations, stats = explore_config(config, epochs=2,
                                           budget=60)
        assert violations == []
        assert stats["runs"] > 1, "DFS must explore real siblings"

    def test_zero_lookahead_scope_is_clean(self):
        # No lookahead: the only sound horizon is just past the earliest
        # pending time, so every epoch of the same loop is one instant
        # and the only choice left is the reply order.
        config = replace(small_config("deco_sync", 2), latency=0.0)
        violations, stats = explore_config(config, epochs=2,
                                           budget=20)
        assert violations == []
        coord = ModelCoordinator(config)
        schedule = _Schedule(())
        coord.run_model(schedule)
        assert all(n == 1 for _, n in schedule.trace[0::2]), \
            "one instant per epoch: no horizon choices"

    def test_budget_truncates(self):
        config = small_config("deco_sync", 2)
        _, stats = explore_config(config, epochs=2, budget=2)
        assert stats["runs"] <= 2
        assert stats["budget_hit"]

    def test_seeded_bug_is_caught(self, drop_phase):
        # Every cross-node batch of a real run is a PHASE_PROTOCOL
        # timer, so the bug cannot move a real run; an epoch where the
        # phase decides must show it through the production merge.
        config = small_config("deco_sync", 2)
        assert check_applied_order(phase_inversion_log(config)) \
            is not None
        violations, _ = explore_config(config, epochs=2, budget=60)
        assert violations == []


class TestCli:
    def test_explore_small_scope_exits_zero(self, capsys):
        rc = main(["--explore", "--schemes", "deco_sync", "--nodes",
                   "2", "--epochs", "2", "--budget", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synthetic merge scenarios: ok" in out
        assert "deco_sync n=2" in out

    def test_drop_phase_mutant_fails_the_cli(self, capsys,
                                             monkeypatch):
        argv = ["--explore", "--schemes", "deco_sync", "--nodes", "2",
                "--epochs", "2", "--budget", "40"]
        assert main(argv) == 0
        assert "VIOLATION" not in capsys.readouterr().out
        install(BY_NAME["drop-phase"], monkeypatch)
        assert main(argv) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_no_mode_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_scheme_is_usage_error(self, capsys):
        assert main(["--explore", "--schemes", "nope"]) == 2

    def test_bad_nodes_is_usage_error(self, capsys):
        assert main(["--explore", "--nodes", "two"]) == 2
