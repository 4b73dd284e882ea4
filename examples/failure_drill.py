"""Failure drill: Deco on an unreliable network (Section 4.3.4).

IoT fabrics drop and delay messages and nodes crash.  Deco's failure
model — timeouts, retransmission, watermarks — keeps count-window
results exact through all of it.  This drill runs Deco_sync through
three regimes and checks the outputs against the ground truth each
time:

1. a clean fabric,
2. a lossy fabric dropping 20% of coordination messages,
3. a transient root crash mid-run.

Run:  python examples/failure_drill.py
"""

from repro.aggregates import Sum
from repro.core import RunConfig
from repro.metrics import results_match
from repro.runtime import ROOT_NAME, local_name
from repro.runtime.driver import build_run, run_simulation
from repro.sim import MessageFaultInjector, crash_node_at, \
    recover_node_at

N_NODES = 2
WINDOW = 2_000
N_WINDOWS = 12


def drill(title, configure):
    config = RunConfig(scheme="deco_sync", n_nodes=N_NODES,
                       window_size=WINDOW, n_windows=N_WINDOWS,
                       rate_per_node=10_000, rate_change=0.05,
                       seed=21, delta_m=4, min_delta=2,
                       retransmit_timeout_s=0.02)
    topo, ctx = build_run(config)
    notes = configure(topo) or ""
    run_simulation(topo, ctx, config.resolved_batch_size(), True)
    result = ctx.result
    exact = results_match(result,
                          ctx.workload.reference_result(Sum()))
    print(f"{title:<42} windows={result.n_windows:>2}/{N_WINDOWS} "
          f"retransmits={result.retransmissions:>3} "
          f"corrections={result.correction_steps:>2} "
          f"exact={exact} {notes}")
    assert exact and result.n_windows == N_WINDOWS
    return result


def main():
    print("Deco_sync failure drill (2 local nodes, "
          f"{WINDOW:,}-event windows)\n")

    drill("clean fabric", lambda topo: None)

    def lossy(topo):
        pairs = {(ROOT_NAME, local_name(a)) for a in range(N_NODES)}
        pairs |= {(local_name(a), ROOT_NAME) for a in range(N_NODES)}
        injector = MessageFaultInjector(topo, drop_probability=0.2,
                                        pairs=pairs, seed=3)
        topo._injector = injector  # keep alive for the note
        return "(20% coordination drops)"

    drill("lossy fabric", lossy)

    def crashing(topo):
        crash_node_at(topo, ROOT_NAME, at_time=0.012)
        recover_node_at(topo, ROOT_NAME, at_time=0.035)
        return "(root down 12-35 ms)"

    drill("transient root crash", crashing)

    print("\nAll three drills produced byte-identical window results.")


if __name__ == "__main__":
    main()
