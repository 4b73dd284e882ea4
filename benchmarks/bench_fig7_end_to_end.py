"""Fig. 7: end-to-end throughput (7a) and latency (7b).

Paper reference (8 local nodes, 1M-event window, sum, 1% rate change):
Deco_async 75.9M ev/s vs Scotty 8.3M (~10x), Central 3.3M, Disco 1.7M;
Central's latency is ~100x Deco_async's, Scotty's is on par.
"""

from repro.experiments import fig7


def test_fig7a_throughput(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig7.rows_fig7a, args=(scale,),
                              rounds=1, iterations=1)
    record_table("fig7a", "Fig 7a: end-to-end throughput",
                 fig7.HEADERS_7A, rows)
    by_name = {r[0]: float(r[1].replace(",", "")) for r in rows}
    # Paper shape: Deco_async ~10x Scotty; Scotty > Central > Disco.
    assert by_name["deco_async"] > 5 * by_name["scotty"]
    assert by_name["scotty"] > by_name["central"] > by_name["disco"]


def test_fig7b_latency(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig7.rows_fig7b, args=(scale,),
                              rounds=1, iterations=1)
    record_table("fig7b", "Fig 7b: end-to-end latency", fig7.HEADERS_7B,
                 rows)
    by_name = {r[0]: float(r[1]) for r in rows}
    # Paper shape: Central worst by far; Scotty on par with Deco_async.
    assert by_name["central"] > 5 * by_name["deco_async"]
    assert by_name["scotty"] < 2 * by_name["deco_async"]
    assert by_name["disco"] > by_name["scotty"]
