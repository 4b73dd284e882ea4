"""``serve_paced_deco`` -- the open-loop latency workload.

``deco_async`` with ``saturated=False``: events arrive on their
timestamps in 31-event batches on the event-time schedule instead of
one bulk drain.  Same scheme and layers as ``serve_sat_deco``, used
differently.  Each window's latency runs from the creation of its last
event to the arrival of its result, so the feeder's batching wait and
every stall are charged to the windows behind them; a round whose last
quartile of windows is more than 50 ms later than its first is a
growing backlog, and all its windows count as failed.

Measured and checked like the other four, but **not gated**: it is not
listed in ``BENCHMARK.json``.  The driver refuses a benchmark whose
same-code runs spread by more than 0.25, and on the reference box (a
2-vCPU microVM whose speed drifts by +-20% over seconds, more while its
cores idle) ten same-code runs of this workload gave p50 spreads of
0.12 to 0.30 and CPU-per-event spreads of 0.10 to 0.29 at every rate
tried, with or without nice-19 spinners keeping the cores awake.

Final size: 7.5k ev/s per node (15k total) and ``n_windows=21`` per
round; the issue measured 30k ev/s per node and 105 windows.  At 60k
ev/s total the four processes keep 1.2 of the 2 cores busy: per-round
p50 ranged from 3 to 70 ms with backlogs building and draining
mid-round, and the per-event cost of a paced run grows with the length
of the pre-scheduled stream (165 windows never caught up, p50 0.5-1.2
s).  At 30k ev/s total p50 was 2.9-4.4 ms but rounds still collapsed
whenever the box ran at half speed.  A latency is only a latency below
the sustainable rate, so the rate is a quarter of the issue's: no
failed round in any phase seen.  21 windows pace out in 5.6 s; with
~0.7 s of spawn/teardown, three rounds (63 windows) fit 20 s.
"""

from e2ebench.workloads.serve import ServeWorkload


class ServePacedDeco(ServeWorkload):
    NAME = "serve_paced_deco"
    LOOP = "open"
    WHY = ("deco_async paced at 15k ev/s in 31-event batches: the "
           "same layers as serve_sat_deco on an event-time schedule, "
           "so the throughput/latency trade of wider epochs shows")
    FULL = {"n_nodes": 2, "window_size": 4_000, "n_windows": 21,
            "rate_per_node": 7_500.0, "saturated": False}
    QUICK = {"n_nodes": 2, "window_size": 1_000, "n_windows": 12,
             "rate_per_node": 7_500.0, "saturated": False}
