"""Soccer analytics on the synthetic DEBS 2013 trace.

The paper's evaluation replays the DEBS 2013 Grand Challenge dataset —
a real-time locating system on a soccer field — "from different
positions so that we can simulate a real deployment" (Section 5).  This
example rebuilds that setup: edge gateways around the stadium ingest
sensor readings (player/ball speeds), and a count-based window query
reports the average and peak speed of every 50,000-reading block, with
the aggregation pushed down to the gateways by Deco.

Run:  python examples/soccer_analytics.py
"""

from repro.aggregates import get_aggregate
from repro.core import RunConfig, run_scheme
from repro.core.workload import build_workload
from repro.metrics import format_si, results_match
from repro.streams.debs import ReplayValues, replay_dataset
from repro.streams.generator import RateChangeGenerator, \
    replayed_offsets

N_GATEWAYS = 4
WINDOW = 50_000
N_WINDOWS = 10
READINGS_PER_SECOND = 40_000  # per gateway


def stadium_workload(seed=7):
    """Each gateway replays the shared dataset from its own offset."""
    dataset = replay_dataset(200_000, seed=seed)
    offsets = replayed_offsets(N_GATEWAYS, len(dataset), seed=seed)
    duration = (N_WINDOWS + 3) * WINDOW / (
        N_GATEWAYS * READINGS_PER_SECOND)
    streams = []
    for i in range(N_GATEWAYS):
        gen = RateChangeGenerator(
            READINGS_PER_SECOND, 0.05, seed=seed + i,
            value_source=ReplayValues(dataset, offset=int(offsets[i])))
        streams.append(gen.generate_seconds(duration))
    return build_workload(streams, WINDOW, N_WINDOWS)


def main():
    workload = stadium_workload()
    print(f"Stadium deployment: {N_GATEWAYS} edge gateways, "
          f"{format_si(N_GATEWAYS * READINGS_PER_SECOND, ' readings/s')} "
          f"aggregate, {WINDOW:,}-reading windows\n")

    outputs = {}
    for scheme in ("central", "deco_async"):
        for agg in ("avg", "max"):
            config = RunConfig(scheme=scheme, n_nodes=N_GATEWAYS,
                               window_size=WINDOW, n_windows=N_WINDOWS,
                               aggregate=agg, delta_m=4, min_delta=4,
                               seed=1)
            outputs[(scheme, agg)] = run_scheme(config, workload)[0]

    print("block  avg speed m/s  peak speed m/s")
    deco_avg = outputs[("deco_async", "avg")]
    deco_max = outputs[("deco_async", "max")]
    for g, (mean, peak) in enumerate(zip(deco_avg.results,
                                         deco_max.results,
                                         strict=True)):
        print(f"{g:>5}  {mean:>13.3f}  {peak:>14.3f}")

    # Deco equals the centralized ground truth on real-trace values.
    for agg in ("avg", "max"):
        reference = workload.reference_result(get_aggregate(agg))
        assert results_match(outputs[("deco_async", agg)], reference)
        assert results_match(outputs[("central", agg)], reference)

    central_bytes = outputs[("central", "avg")].total_bytes
    deco_bytes = outputs[("deco_async", "avg")].total_bytes
    print(f"\nBackhaul traffic per query: Central "
          f"{format_si(central_bytes, 'B')} vs Deco_async "
          f"{format_si(deco_bytes, 'B')} "
          f"({(1 - deco_bytes / central_bytes) * 100:.1f}% saved), "
          f"same results.")


if __name__ == "__main__":
    main()
