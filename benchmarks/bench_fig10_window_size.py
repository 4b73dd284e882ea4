"""Figs. 10e-10f: adaptivity to window sizes.

Paper reference: Deco pays off as windows grow (centralized
aggregation suffices for small windows); Deco_async's benefit appears
earliest; at a 50% rate change every Deco scheme still delivers 100%
correctness at every window size.
"""

from repro.experiments import fig10
from repro.experiments.config import ADAPTIVITY_SCHEMES

HEADERS = ["window size"] + list(ADAPTIVITY_SCHEMES)


def test_fig10e_throughput_vs_window(benchmark, scale, record_table):
    data = benchmark.pedantic(fig10.run_window_size_sweep,
                              args=(scale,), rounds=1, iterations=1)
    record_table("fig10e", "Fig 10e: throughput vs window size",
                 HEADERS, fig10.rows_fig10e(data))
    sizes = sorted(data)
    async_thr = [data[s]["deco_async"].throughput for s in sizes]
    # Deco benefits from larger windows.
    assert async_thr[-1] > 1.5 * async_thr[0]


def test_fig10f_correctness_unstable(benchmark, scale, record_table):
    data = benchmark.pedantic(fig10.run_window_size_sweep,
                              args=(scale, 0.5), rounds=1, iterations=1)
    record_table("fig10f",
                 "Fig 10f: correctness vs window size (50% change)",
                 HEADERS, fig10.rows_fig10f(data))
    for _size, summaries in data.items():
        for scheme in ("deco_mon", "deco_sync", "deco_async"):
            # Exact-correctness contract, not a float tolerance.
            assert summaries[scheme].correctness == 1.0
        assert summaries["approx"].correctness < 1.0
