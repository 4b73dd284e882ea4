"""Fig. 8: network utilization.

Paper reference: Deco_async ships partial results instead of raw events
and saves up to 99% of network bytes; Disco's string wire format costs
more than Central/Scotty; total traffic grows linearly with node count.
"""

from repro.experiments import fig8


def test_fig8a_single_local_node(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig8.rows_fig8a, args=(scale,),
                              rounds=1, iterations=1)
    record_table("fig8a", "Fig 8a: network bytes, 1 local node",
                 fig8.HEADERS_8A, rows)
    by_name = {r[0]: int(r[1].replace(",", "")) for r in rows}
    # Paper shape: Deco_async saves the vast majority of bytes; Disco's
    # strings cost ~3x Central.
    assert by_name["deco_async"] < 0.15 * by_name["central"]
    assert by_name["disco"] > 2.5 * by_name["central"]
    assert by_name["scotty"] == by_name["central"]


def test_fig8b_multi_node(benchmark, scale, record_table):
    rows = benchmark.pedantic(fig8.rows_fig8b, args=(scale,),
                              rounds=1, iterations=1)
    record_table("fig8b", "Fig 8b: network bytes vs node count",
                 fig8.HEADERS_8B, rows)
    central = [int(r[1].replace(",", "")) for r in rows]
    deco = [int(r[-1].replace(",", "")) for r in rows]
    nodes = [r[0] for r in rows]
    # Linear growth with node count (fixed events per node).
    growth = central[-1] / central[0]
    assert 0.5 * (nodes[-1] / nodes[0]) < growth < 2.0 * (
        nodes[-1] / nodes[0])
    # Deco stays far below the centralized baselines at every size.
    assert all(d < 0.2 * c
               for d, c in zip(deco, central, strict=True))
