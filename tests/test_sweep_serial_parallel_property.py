"""Property test: parallel sweeps are bit-identical to serial runs.

Hypothesis generates random small :class:`RunConfig` grids; each grid
runs serially (``jobs=1``, in-process) and through the process-pool
executor (``jobs=2``), and every run's ``TimedFingerprint`` (window
results, emission times, bytes, counters, busy time) must match bit for
bit.  This is the sweep-level face of the determinism contract: results
may never depend on *where* a run executed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.determinism import TimedFingerprint
from repro.core.runner import RunConfig
from repro.sweep import SweepExecutor

SCHEMES = ("central", "scotty", "approx", "deco_mon", "deco_sync",
           "deco_async")


@st.composite
def run_configs(draw):
    scheme = draw(st.sampled_from(SCHEMES))
    return RunConfig(
        scheme=scheme,
        n_nodes=draw(st.integers(min_value=1, max_value=3)),
        window_size=draw(st.sampled_from([400, 900, 1_500])),
        n_windows=draw(st.integers(min_value=1, max_value=4)),
        rate_per_node=draw(st.sampled_from([10_000.0, 40_000.0])),
        rate_change=draw(st.sampled_from([0.0, 0.05, 0.3])),
        seed=draw(st.integers(min_value=0, max_value=50)),
        tiebreak_salt=draw(st.sampled_from([0, 1, 0x5A5A])))


@pytest.mark.slow
@given(configs=st.lists(run_configs(), min_size=1, max_size=3))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_serial_and_parallel_sweeps_bit_identical(configs):
    serial = SweepExecutor(jobs=1).run_with_workloads(configs)
    parallel = SweepExecutor(jobs=2).run_with_workloads(configs)
    assert len(serial) == len(parallel) == len(configs)
    for config, (res_s, wl_s), (res_p, wl_p) in zip(
            configs, serial, parallel, strict=True):
        assert TimedFingerprint.of(res_s) == TimedFingerprint.of(res_p), \
            config.scheme
        assert wl_s.n_nodes == wl_p.n_nodes
