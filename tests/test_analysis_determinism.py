"""Schedule-determinism harness: the typed determinism contract.

Every scheme must produce bit-identical window results, spans, flows,
bytes, and message counts under permuted kernel tie-break salts — any
divergence means some outcome depends on incidental same-time event
ordering.
"""

import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest

import repro.baselines  # noqa: F401
import repro.core  # noqa: F401
from repro.analysis.determinism import (DEFAULT_SALTS,
                                        DeterminismViolation,
                                        Fingerprint, TimedFingerprint,
                                        check_all_schemes,
                                        check_determinism)
from repro.core.records import RunResult, WindowOutcome
from repro.core.runner import RunConfig, run_scheme
from repro.core.workload import default_cache
from repro.errors import SimulationError
from repro.sim.kernel import Simulator

SMALL = dict(n_nodes=3, window_size=1_200, n_windows=4,
             rate_per_node=30_000.0, rate_change=0.05)

ALL = ("central", "scotty", "disco", "approx",
       "deco_mon", "deco_sync", "deco_async")


def small_config(scheme, **over):
    return RunConfig(scheme=scheme, **{**SMALL, **over})


def small_workload(scheme="central"):
    return default_cache().get(small_config(scheme).workload_key())


class TestKernelSalt:
    def test_salt_validates(self):
        with pytest.raises(SimulationError):
            Simulator(tiebreak_salt=-1)

    def test_salt_permutes_equal_time_order(self):
        def order_with(salt):
            sim = Simulator(tiebreak_salt=salt)
            ran = []
            for i in range(8):
                sim.schedule_at(1.0, lambda i=i: ran.append(i))
            sim.run()
            return ran

        assert order_with(0) == list(range(8))
        permuted = order_with(5)
        assert permuted != list(range(8))
        assert sorted(permuted) == list(range(8))

    def test_phases_order_before_salt(self):
        sim = Simulator(tiebreak_salt=3)
        ran = []
        sim.schedule_at(1.0, lambda: ran.append("source"), phase=2)
        sim.schedule_at(1.0, lambda: ran.append("deliver"), phase=1)
        sim.schedule_at(1.0, lambda: ran.append("protocol"), phase=0)
        sim.run()
        assert ran == ["protocol", "deliver", "source"]

    def test_rank_orders_within_phase(self):
        sim = Simulator(tiebreak_salt=0xFFFF)
        ran = []
        for name in ("local-2", "local-0", "local-1"):
            sim.schedule_at(1.0, lambda n=name: ran.append(n),
                            rank=(name, "root"))
        sim.run()
        assert ran == ["local-0", "local-1", "local-2"]


class TestFingerprint:
    def _result(self, value=2.0):
        r = RunResult(scheme="x", n_nodes=1, window_size=10)
        r.outcomes.append(WindowOutcome(
            index=0, result=value, emit_time=1.0,
            spans={0: (0, 10)}, up_flows=1))
        r.messages = 5
        r.node_busy_s = {"root": 0.5}
        return r

    def test_equal_runs_equal_fingerprints(self):
        assert (Fingerprint.of(self._result())
                == Fingerprint.of(self._result()))

    def test_result_bits_matter(self):
        # 0.1+0.2 != 0.3 at the bit level: the fingerprint must see it.
        a = Fingerprint.of(self._result(0.3))
        b = Fingerprint.of(self._result(0.1 + 0.2))
        assert a != b
        assert any("window 0" in line for line in a.diff(b))

    def test_diff_names_scalar_fields(self):
        a = Fingerprint.of(self._result())
        other = self._result()
        other.messages = 6
        b = Fingerprint.of(other)
        assert a.diff(b) == ["messages: 5 != 6"]

    def test_emit_time_excluded(self):
        other = self._result()
        other.outcomes[0].emit_time = 99.0
        assert (Fingerprint.of(self._result())
                == Fingerprint.of(other))

    @pytest.mark.parametrize("projection", [Fingerprint, TimedFingerprint])
    def test_diff_names_every_field(self, projection):
        result = self._result()
        result.queries = {"q0": {"fingerprint": "ab"}}
        digest = projection.of(result)
        for f in fields(digest):
            value = getattr(digest, f.name)
            # A keyed field keeps its length and key: only a payload moves.
            moved = (value[:-1] + ((value[-1][0], "moved"),)
                     if f.metadata.get("item") else "moved")
            diff = digest.diff(replace(digest, **{f.name: moved}))
            assert diff and all(line.startswith(f"{f.name}: ")
                                for line in diff), (f.name, diff)


class TestHarness:
    @pytest.mark.parametrize("scheme", ALL)
    def test_scheme_is_salt_invariant(self, scheme):
        check_determinism(small_config(scheme),
                          workload=small_workload())

    def test_monlocal_is_salt_invariant(self):
        check_determinism(small_config("deco_monlocal"),
                          workload=small_workload())

    def test_all_schemes_share_workload(self):
        fps = check_all_schemes(("central", "deco_sync"),
                                salts=DEFAULT_SALTS[:2], **SMALL)
        assert set(fps) == {"central", "deco_sync"}
        # Both consumed the same events, so exact schemes agree.
        assert (fps["central"].windows[0][1]
                == fps["deco_sync"].windows[0][1])

    def test_paced_mode_is_salt_invariant(self):
        check_determinism(small_config("deco_async", saturated=False),
                          workload=small_workload())

    def test_violation_has_field_diff(self):
        # Force a divergence by comparing two *different* workloads
        # under the guise of one config: seeds differ, so the harness
        # must flag the (synthetic) mismatch.
        config = small_config("central")
        base = Fingerprint.of(run_scheme(config)[0])
        other = Fingerprint.of(run_scheme(small_config("central",
                                                       seed=1))[0])
        assert base != other
        diff = base.diff(other)
        assert diff, "different seeds must produce a field-level diff"

    def test_requires_salts(self):
        with pytest.raises(ValueError):
            check_determinism(small_config("central"), salts=())



def test_import_loads_no_other_analysis_layer():
    # Benchmarks import Fingerprint: no model checker or serve.
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.analysis.determinism; "
         "print(*sys.modules)"], capture_output=True, text=True).stdout
    assert "repro.analysis.determinism" in loaded
    assert not re.findall(r"repro\.(analysis\.explore|serve)\b",
                          loaded)
