"""Smart factory quality monitoring — the paper's motivating example.

A factory runs assembly lines at different speeds; each line reports a
quality score per manufactured product.  Quality control needs the
*average, minimum, and maximum* quality of every batch of exactly
10,000 products — a count-based window across all lines — and "in a
setting where product batches are subject to rigorous quality control,
[approximation] errors are unacceptable" (Section 1).

Line speeds change with product demand, so the naive static split
(Approx) assigns the wrong number of products per line and mixes
batches; Deco predicts, verifies, and corrects, so every batch is
exact.

Run:  python examples/smart_factory.py
"""

from repro.aggregates import get_aggregate
from repro.core import RunConfig, run_scheme
from repro.core.workload import build_workload
from repro.metrics import correctness, per_window_correctness, \
    results_match
from repro.streams.generator import GaussianValues, RateChangeGenerator

BATCH_SIZE = 10_000  # products per quality-control batch
N_BATCHES = 12

#: Assembly lines: (products/second, demand variability).
ASSEMBLY_LINES = [
    ("line-A (engine blocks)", 4_000, 0.15),
    ("line-B (gearboxes)", 6_500, 0.30),
    ("line-C (chassis)", 2_500, 0.10),
]


def factory_workload(seed=42):
    """One stream per assembly line; values are quality scores ~
    N(95, 2) with line-speed (rate) drift from changing demand."""
    streams = []
    needed_seconds = (N_BATCHES + 3) * BATCH_SIZE / sum(
        r for _, r, _ in ASSEMBLY_LINES)
    for i, (_name, rate, variability) in enumerate(ASSEMBLY_LINES):
        gen = RateChangeGenerator(
            rate, variability, epoch_seconds=0.5,
            value_source=GaussianValues(95.0, 2.0), seed=seed + i)
        streams.append(gen.generate_seconds(needed_seconds))
    return build_workload(streams, BATCH_SIZE, N_BATCHES)


def run(scheme, workload, aggregate):
    config = RunConfig(scheme=scheme, n_nodes=len(ASSEMBLY_LINES),
                       window_size=BATCH_SIZE, n_windows=N_BATCHES,
                       aggregate=aggregate, delta_m=4, min_delta=4,
                       seed=1)
    result, _ = run_scheme(config, workload)
    return result


def main():
    workload = factory_workload()
    print("Smart factory: 3 assembly lines, quality-control batches of "
          f"{BATCH_SIZE:,} products\n")
    for name, rate, var in ASSEMBLY_LINES:
        print(f"  {name}: ~{rate:,} products/s, "
              f"±{var * 100:.0f}% demand swing")
    print()

    # Exact per-batch quality statistics via Deco_async.
    for agg_name in ("avg", "min", "max"):
        deco = run("deco_async", workload, agg_name)
        reference = workload.reference_result(get_aggregate(agg_name))
        assert results_match(deco, reference), agg_name
        values = ", ".join(f"{v:.3f}" for v in deco.results[:4])
        print(f"batch {agg_name:>3} quality (first 4 batches): {values} "
              f"... [{deco.correction_steps} corrections, all exact]")

    # What the naive static split would have reported.
    approx = run("approx", workload, "avg")
    deco = run("deco_async", workload, "avg")
    acc = correctness(approx, workload)
    per_batch = per_window_correctness(approx, workload)
    print(f"\nApprox (static split): only {acc * 100:.1f}% of products "
          f"landed in their correct batch;")
    print(f"  worst batch mixed in "
          f"{(1 - min(per_batch)) * 100:.1f}% foreign products.")
    reference = workload.reference_result(get_aggregate("avg"))
    worst = max(abs(a - r)
                for a, r in zip(approx.results, reference, strict=True))
    print(f"  worst average-quality error: {worst:.4f} points "
          f"(Deco: 0.0000).")

    print(f"\nNetwork: Deco_async moved "
          f"{deco.total_bytes:,} B vs Central-style raw forwarding "
          f"{approx.window_size * N_BATCHES * 24:,} B of raw events.")


if __name__ == "__main__":
    main()
