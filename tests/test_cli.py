"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.serve import harness
from repro.sweep import JOBS_ENV

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestSchemes:
    def test_lists_all_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for scheme in ("central", "scotty", "disco", "approx",
                       "deco_mon", "deco_sync", "deco_async",
                       "deco_monlocal"):
            assert scheme in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "deco_async", "--nodes", "2", "--window",
                     "1000", "--windows", "6", "--rate", "10000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deco_async" in out
        assert "ev/s" in out
        assert "1.0000" in out  # correctness column

    def test_run_latency_mode(self, capsys):
        code = main(["run", "central", "--nodes", "2", "--window",
                     "1000", "--windows", "6", "--rate", "10000",
                     "--mode", "latency"])
        assert code == 0
        assert "ms" in capsys.readouterr().out

    def test_run_custom_aggregate(self, capsys):
        code = main(["run", "deco_sync", "--nodes", "2", "--window",
                     "1000", "--windows", "6", "--rate", "10000",
                     "--aggregate", "avg"])
        assert code == 0


class TestCompare:
    def test_compare_prints_all_rows(self, capsys):
        code = main(["compare", "central", "deco_async", "--nodes",
                     "2", "--window", "1000", "--windows", "6",
                     "--rate", "10000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "central" in out
        assert "deco_async" in out


class TestJobsFlag:
    ARGS = ["--nodes", "2", "--window", "1000", "--windows", "6",
            "--rate", "10000"]

    def test_single_run_commands_reject_jobs(self, capsys):
        # One run has nothing to fan out: --jobs is a usage error, not
        # a flag that is accepted and ignored.
        with pytest.raises(SystemExit) as exc:
            main(["run", "central", *self.ARGS, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_compare_takes_jobs(self, capsys):
        assert main(["compare", "central", "deco_async", *self.ARGS,
                     "--jobs", "1"]) == 0
        assert "deco_async" in capsys.readouterr().out

    @pytest.mark.parametrize("prior", [None, "5"])
    def test_experiment_jobs_lasts_one_command(self, monkeypatch, prior):
        # The figure drivers see --jobs; the caller's $REPRO_JOBS, or
        # its absence, survives the command.
        monkeypatch.delenv(JOBS_ENV, raising=False)
        if prior:
            monkeypatch.setenv(JOBS_ENV, prior)
        seen = []
        monkeypatch.setattr(cli, "_experiment", lambda name, scale: (
            seen.append(os.environ.get(JOBS_ENV)) or 0))
        assert main(["experiment", "list", "--jobs", "3"]) == 0
        assert (seen, os.environ.get(JOBS_ENV)) == (["3"], prior)


class TestOwnedParsers:
    """``check`` parses its own command line."""

    @pytest.mark.parametrize("command, flag", [("check", "--explore")])
    def test_help_is_the_owning_parsers(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"usage: repro {command}" in out
        assert flag in out

    def test_lint_is_not_a_command(self, capsys):
        # The source rules are rows of tests/test_layout.py.
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestExperiment:
    def test_experiment_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7a", "fig8a", "fig9a", "fig10a", "fig11a",
                     "micro"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1", "nan"])
    def test_non_positive_scale_is_usage_error(self, capsys, scale):
        # Not silently floored to the smallest workload.
        assert main(["experiment", "fig7a", "--scale", scale]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --scale") and \
            err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(cli._register_experiments()))
    def test_headers_match_committed_table(self, name):
        """``repro experiment`` prints the committed table's header
        row: the header line of ``benchmarks/results/<name>.txt``."""
        headers, _ = cli._register_experiments()[name]
        table = RESULTS / f"{name}.txt"
        header_row = table.read_text().splitlines()[1]
        assert re.split(r"  +", header_row.strip()) == headers

    def test_experiment_runs_tiny(self, capsys):
        assert main(["experiment", "fig7a", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "deco_async" in out


class TestServe:
    def test_serve_prints_load_report(self, capsys):
        code = main(["serve", "deco_sync", "--nodes", "2", "--window",
                     "400", "--windows", "3", "--rate", "20000",
                     "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deco_sync" in out
        assert "p99 ms" in out

    def test_serve_sources_need_paced_load(self, capsys):
        code = main(["serve", "central", "--nodes", "2", "--window",
                     "400", "--windows", "3", "--rate", "20000",
                     "--sources", "3"])
        assert code == 2
        assert "--load latency" in capsys.readouterr().err

    def test_serve_sources_paced(self, capsys):
        code = main(["serve", "central", "--nodes", "2", "--window",
                     "400", "--windows", "3", "--rate", "20000",
                     "--seed", "7", "--load", "latency",
                     "--sources", "2", "--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_trace_runtime_serve(self, capsys, tmp_path):
        out = tmp_path / "serve_trace.json"
        code = main(["trace", "--scheme", "deco_sync", "--nodes", "2",
                     "--window", "400", "--windows", "3", "--rate",
                     "20000", "--seed", "7", "--runtime", "serve",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "deco_sync" in printed
        assert "root" in printed  # per-node summary table
        import json
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]


class TestBadArguments:
    """A bad value is one ``repro: error:`` line and exit 2, never a
    traceback, and never a spawned worker."""

    ARGS = ["--window", "400", "--windows", "3", "--rate", "20000"]

    @pytest.fixture(autouse=True)
    def no_workers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a serve worker was forked")
        monkeypatch.setattr(harness, "_fork_worker", refuse)

    @pytest.mark.parametrize("bad", [
        ["--nodes", "0"], ["--queries", "sum:10:20"], ["--delta-m", "0"],
        ["--rate-change", "-2"], ["--windows", "0"], ["--rate", "0"],
        ["--aggregate", "nope"], ["--aggregate", "quantile(2)"],
        ["--aggregate", "quantile(x)"], ["--queries", "nope:100"],
        ["--rate", "nan"], ["--rate", "inf"]])
    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_usage_error_without_traceback(self, capsys, command, bad):
        assert main([command, "central", *self.ARGS, *bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_rejects_zero_sources_before_spawning(self, capsys):
        assert main(["serve", "central", *self.ARGS, "--load", "latency",
                     "--sources", "0"]) == 2
        assert "--sources must be >= 1" in capsys.readouterr().err

    def test_entry_point_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "central",
             "--windows", "0"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "repro: error: need >= 1 window, got 0\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "central"])
        assert args.nodes == 2
        assert args.load == "throughput"
        assert args.delta_m == 4

    def test_serve_mode_flags(self):
        args = build_parser().parse_args(
            ["serve", "central", "--load", "latency",
             "--sources", "4"])
        assert args.load == "latency"
        assert args.sources == 4
        # ``serve`` has one run loop: no coordination-mode flag, and
        # the load shape is spelled --load there.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "central", "--mode", "latency"])
