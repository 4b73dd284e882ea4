"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables/figures and
prints the same rows/series the paper plots (absolute numbers come from
the simulator's cost model; the paper's *shapes* are the target — see
EXPERIMENTS.md).  Tables are also written to ``benchmarks/results/`` so
documentation can reference them.

Scale: set ``REPRO_SCALE`` (default 0.5) to shrink/grow workloads;
1.0 reproduces the default benchmark scale documented in DESIGN.md.

Parallelism: the experiment drivers fan their independent scheme runs
out over ``REPRO_JOBS`` worker processes (default: CPU count; set
``REPRO_JOBS=1`` to force the serial in-process path).  Workloads are
generated once per distinct parameter tuple and shared through the
``.wlm`` cache (``REPRO_WORKLOAD_CACHE`` overrides its directory).
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Print one experiment table and persist it under results/."""
    from repro.metrics.report import format_table

    def _record(name, title, headers, rows):
        table = f"== {title} ==\n" + format_table(headers, rows)
        print("\n" + table)
        (results_dir / f"{name}.txt").write_text(table + "\n")
        return table

    return _record
