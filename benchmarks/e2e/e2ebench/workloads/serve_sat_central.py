"""``serve_sat_central`` -- every raw event crosses the socket.

Closed loop (saturated): the same cluster as ``serve_sat_deco`` with
``scheme="central"``: 24 B/event on the wire, so ``wire``
encode/decode, blob framing and root-side ``core.agg_index`` dominate.
The mechanism ``serve_sat_deco`` exercises (many small op batches) is
nearly bypassed: a codec or ``sendmsg`` change shows here and a JSON
change mostly does not.

Final size: ``n_windows=120`` (the issue measured 600, ~5.5 s/round).
0.9M events give a ~1.5 s timed part at ~0.6M ev/s plus ~0.5 s of
spawn/teardown, about ten rounds in the 20 s a run measures for.
"""

from e2ebench.workloads.serve import ServeWorkload


class ServeSatCentral(ServeWorkload):
    NAME = "serve_sat_central"
    SCHEME = "central"
    WHY = ("central saturated over 4 processes: 24 B/event on the "
           "socket, so wire coding, blob framing and the root's "
           "agg_index dominate; the small-op-batch path is bypassed")
    FULL = {"n_nodes": 2, "window_size": 4_000, "n_windows": 120}
    QUICK = {"n_nodes": 2, "window_size": 4_000, "n_windows": 8,
             "rate_per_node": 10_000.0}
    PROBES = (*ServeWorkload.PROBES, "aggregates", "agg_index")
