"""Quickstart: decentralized count-window aggregation with Deco.

Runs the paper's headline comparison at laptop scale: a tumbling
count-based window with a ``sum`` aggregate over a star topology of
8 local nodes, comparing the centralized baseline (all raw events to
the root) against Deco_async (partial aggregation at the local nodes,
prediction-verified boundaries).

Run:  python examples/quickstart.py
"""

from repro.aggregates import Sum
from repro.api import compare, run
from repro.metrics import format_si


def main():
    print("Deco quickstart: 8 local nodes, 40k-event tumbling window, "
          "sum, 1% rate change\n")

    results = compare(
        ["central", "scotty", "deco_async"],
        n_nodes=8,
        window_size=40_000,
        n_windows=30,
        rate_per_node=50_000,   # events/s per local node
        rate_change=0.01,       # the paper's 1% setting
        delta_m=4,              # delta smoothing window
        min_delta=4,            # delta floor (events)
    )

    print(f"{'approach':<12} {'throughput':>16} {'network':>12} "
          f"{'correct':>8} {'corrections':>12}")
    for name, summary in results.items():
        print(f"{name:<12} "
              f"{format_si(summary.throughput, ' ev/s'):>16} "
              f"{format_si(summary.result.total_bytes, 'B'):>12} "
              f"{summary.correctness:>8.4f} "
              f"{summary.result.correction_steps:>12}")

    central = results["central"]
    deco = results["deco_async"]
    saving = 1 - deco.result.total_bytes / central.result.total_bytes
    print(f"\nDeco_async vs Central: "
          f"{deco.throughput / central.throughput:.1f}x throughput, "
          f"{saving * 100:.1f}% "
          f"less network traffic, identical results.")

    # Every emitted window matches the ground truth exactly.
    reference = deco.workload.reference_result(Sum())
    assert all(abs(a - b) < 1e-6
               for a, b in zip(deco.result.results, reference,
                               strict=True))
    print("Verified: Deco_async's window results equal Central's.")

    # Standing queries: any number of extra count-window queries ride
    # along a run, served per stream from one shared slice store and
    # partial tree (DESIGN.md Section 14).  A single query is just a
    # one-element tuple on the same path.
    summary = run("deco_sync", n_nodes=2, window_size=2_000,
                  n_windows=6, rate_per_node=20_000,
                  queries=("sum:1000", "avg:700:350"))
    print("\nStanding queries (2 per node, shared slice store):")
    for qid, acct in sorted(summary.result.queries.items()):
        print(f"  {qid}: {acct['stream']} {acct['label']:<12} "
              f"windows={acct['windows']:<4} "
              f"fingerprint={acct['fingerprint'][:12]}")


if __name__ == "__main__":
    main()
