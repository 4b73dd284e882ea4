"""Section 5.1 microbenchmark: Deco_mon vs root-less Deco_monlocal.

Paper reference (32 local nodes): Deco_monlocal 10.24 ms per window vs
Deco_mon 0.526 ms — the O(n^2) peer rate exchange dominates.  Our
deterministic simulator reproduces the ordering with a smaller gap (see
EXPERIMENTS.md).
"""

from repro.experiments import micro


def test_micro_monlocal(benchmark, scale, record_table):
    rows = benchmark.pedantic(micro.rows_micro, args=(scale, 32),
                              rounds=1, iterations=1)
    record_table("micro", "Microbenchmark: Deco_mon vs Deco_monlocal "
                 "(32 local nodes)", micro.HEADERS_MICRO, rows)
    by_name = {r[0]: float(r[1]) for r in rows}
    assert by_name["deco_monlocal"] > 1.15 * by_name["deco_mon"]
