"""Fork hygiene of the serve harness.

Workers are forked from the process that calls ``run_scheme_served``.
A forked child inherits that process's unflushed stdio buffers, its
signal handlers and its place in the process tree; these tests pin
what the child must and must not do with each of them.
"""

import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve import harness, run_scheme_served

from tests.test_serve_failures import (crash_before_handle,
                                       lingering_workers, tiny_config,
                                       wait_no_lingering_workers)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Writes a marker without flushing, then runs a served cluster; the
#: marker must reach the pipe once, not once per forked worker.
UNFLUSHED_MARKER = """
import sys
import repro.core, repro.baselines
from repro.core.runner import RunConfig
from repro.serve import run_scheme_served
sys.stdout.write("unflushed-marker\\n")
run_scheme_served(RunConfig(scheme="central", n_nodes=2, window_size=400,
                            n_windows=3, rate_per_node=20_000.0, seed=7))
"""


class TestForkHygiene:
    def test_unflushed_stdout_is_written_once(self):
        # stdout is a pipe here, so it is block-buffered: the marker is
        # still in the buffer when the workers are forked.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", UNFLUSHED_MARKER], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("unflushed-marker") == 1

    def test_parent_sigterm_handler_does_not_shield_workers(
            self, monkeypatch):
        # The caller ignores SIGTERM; the harness's SIGTERM must still
        # end the survivors of a crash, so each child reset it to
        # SIG_DFL (an inherited handler would hold them until the
        # SIGKILL fallback).
        crash_before_handle(monkeypatch, 3, node="local-0")
        codes = {}
        real_terminate = harness._terminate

        def terminate(procs):
            real_terminate(procs)
            codes.update((name, proc.exitcode)
                         for name, proc in procs.items())

        monkeypatch.setattr(harness, "_terminate", terminate)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with pytest.raises(ServeError, match="local-0 exited 1"):
                run_scheme_served(tiny_config())
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert codes == {"root": -signal.SIGTERM, "local-0": 1,
                         "local-1": -signal.SIGTERM}
        wait_no_lingering_workers()

    def test_worker_cpu_is_charged_to_the_caller(self):
        # The benchmark charges worker CPU through RUSAGE_CHILDREN, so
        # every worker must be a direct child the harness waits for.
        def children_cpu_s():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu_s()
        run_scheme_served(tiny_config("central"))
        assert children_cpu_s() > before
        assert lingering_workers() == []
