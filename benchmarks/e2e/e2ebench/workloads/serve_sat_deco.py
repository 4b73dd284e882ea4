"""``serve_sat_deco`` -- decentralised traffic over real processes.

Closed loop (saturated): ``run_scheme_served("deco_async")`` with 2
locals, ``window_size=4_000``.  About 1 wire byte per event and
thousands of tiny partial messages, so ``serve.coordinator`` epoch
collection, ``serve.protocol`` JSON op lists, ``serve.framing`` headers
and ``serve.merge`` do most of the work and ``wire`` payload coding
does little.  A wider epoch or a bigger batch raises
``throughput_eps`` here and can raise ``result_latency_p50_ms`` on
``serve_paced_deco`` -- the pair makes that trade visible.

Final size: ``n_windows=300`` (the issue measured 1500, ~6 s/round).
1.7M events give a ~1.1 s timed part plus ~0.5 s of spawn/teardown per
round, so about twelve rounds fit the 20 s a run measures for.
"""

from e2ebench.workloads.serve import ServeWorkload


class ServeSatDeco(ServeWorkload):
    NAME = "serve_sat_deco"
    WHY = ("deco_async saturated over 4 processes: tiny partial "
           "messages, so coordinator, JSON op lists, framing and merge "
           "dominate and wire payload coding does little")
    FULL = {"n_nodes": 2, "window_size": 4_000, "n_windows": 300}
    QUICK = {"n_nodes": 2, "window_size": 4_000, "n_windows": 15,
             "rate_per_node": 10_000.0}
