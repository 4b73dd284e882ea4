"""The end-to-end benchmark's own test, on the ``--quick`` sizes.

Not part of tier-1 (``pytest`` collects ``tests/`` only); run it with
``python -m pytest benchmarks/e2e/test_e2e_bench.py``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from e2ebench import cli, measure  # noqa: E402
from e2ebench.spans import SpanRecorder  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

SPEC = cli.load_spec()
DECLARED = SPEC["end_to_end"] + SPEC["per_layer"]


def test_declared_names_are_well_formed():
    names = [m["name"] for m in DECLARED]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    # The driver gates on every workload but the open-loop one.
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name, cls in WORKLOADS.items() if cls.LOOP == "closed"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_quick_run_prints_every_declared_metric_with_its_unit(capfd):
    assert cli.main(["--quick", "--traced"]) == 0
    blocks = capfd.readouterr().out.split("== ")[1:]
    assert [b.split()[0] for b in blocks] == list(WORKLOADS)
    for block in blocks:
        printed = {}
        for line in block.splitlines():
            fields = line.split()
            if len(fields) >= 4 and fields[3].startswith("n="):
                printed[fields[0]] = fields[2]
        for metric in DECLARED:
            assert printed.get(metric["name"]) == metric["unit"], \
                (block.split()[0], metric["name"])
        assert block.split("failed_share")[1].split()[0] == "0"


def test_driver_mode_ends_with_the_result_line(capsys):
    argv = ["--quick", "--workload", "multiquery_fanout", "--seed", "3"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        assert cli.main([*argv, "--trace", trace]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()
                } == {m["name"]: m["unit"] for m in SPEC[key]}


def _corrupt_one_window(outputs):
    """Flip one window value of one run of the round."""
    result = next(iter(outputs.values())) if isinstance(outputs, dict) \
        else outputs
    result.outcomes[len(result.outcomes) // 2].result += 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_corrupted_window_value_is_a_failed_op(name, tmp_path):
    wl = WORKLOADS[name](seed=11, quick=True)
    measure.set_up(wl, tmp_path, reps=1)
    rnd = measure.measured_round(wl, SpanRecorder(enabled=False),
                                 traced=False)
    assert rnd.attempted > 0 and rnd.failed == 0, rnd.error
    _corrupt_one_window(rnd.outputs)
    wl.check(rnd)
    assert rnd.failed > 0
