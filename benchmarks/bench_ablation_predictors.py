"""Ablation: prediction functions (Section 6 future work).

The paper predicts the next local window size as the previous one and
notes that "more advanced predictions could also be applied in future
work".  This ablation compares the paper's last-value predictor against
a moving average and a linear-trend extrapolation on a drifting-rate
workload.
"""

from repro.core import RunConfig
from repro.core.prediction import PREDICTORS
from repro.core.workload import generate_workload
from repro.runtime.driver import build_run, run_simulation

HEADERS = ["predictor", "corrections", "network bytes"]


def sweep(scale):
    window = max(512, int(20_000 * scale))
    n_windows = max(10, int(50 * scale * 2))
    workload = generate_workload(2, window, n_windows,
                                 rate_per_node=50_000,
                                 rate_change=0.2, epoch_seconds=0.05,
                                 seed=17)
    rows = []
    for name in PREDICTORS:
        config = RunConfig(scheme="deco_sync", n_nodes=2,
                           window_size=window, n_windows=n_windows,
                           delta_m=4, min_delta=4, seed=17)
        topo, ctx = build_run(config, workload)
        # Swap the predictor (the query carries the strategy name).
        ctx.query.predictor = name
        predictor_cls = PREDICTORS[name]
        topo.root.behavior.predictors = [
            predictor_cls(m=4, min_delta=4) for _ in range(2)]
        run_simulation(topo, ctx, config.resolved_batch_size(), True)
        assert ctx.result.n_windows == n_windows
        rows.append([name, ctx.result.correction_steps,
                     f"{ctx.result.total_bytes:,}"])
    return rows


def test_ablation_predictors(benchmark, scale, record_table):
    rows = benchmark.pedantic(sweep, args=(scale,), rounds=1,
                              iterations=1)
    record_table("ablation_predictors",
                 "Ablation: prediction function", HEADERS, rows)
    by_name = {r[0]: r[1] for r in rows}
    # All predictors complete exactly; the paper's last-value baseline
    # is competitive (within 3x of the best).
    best = min(by_name.values())
    assert by_name["last-value"] <= max(3 * best, best + 10)
