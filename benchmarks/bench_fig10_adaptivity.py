"""Figs. 10a-10d: adaptivity to event-rate changes.

Paper reference (2 local nodes + root): Approx has optimal throughput
but degrading correctness; Deco_async tracks Approx at small changes
and falls below Deco_sync when corrections pile up; Deco_sync/async
network cost grows with the change rate; corrections per 100 windows
grow with the change rate with async > sync; every Deco scheme stays at
100% correctness.
"""

from repro.experiments import fig10


def test_fig10_rate_change_sweep(benchmark, scale, record_table):
    data = benchmark.pedantic(fig10.run_rate_change_sweep,
                              args=(scale,), rounds=1, iterations=1)
    record_table("fig10a", "Fig 10a: throughput vs rate change",
                 fig10.HEADERS_RATE, fig10.rows_fig10a(data))
    record_table("fig10b", "Fig 10b: network bytes vs rate change",
                 fig10.HEADERS_RATE, fig10.rows_fig10b(data))
    record_table("fig10c", "Fig 10c: corrections per 100 windows",
                 fig10.HEADERS_10C, fig10.rows_fig10c(data))
    record_table("fig10d", "Fig 10d: correctness vs rate change",
                 fig10.HEADERS_RATE, fig10.rows_fig10d(data))

    changes = sorted(data)
    smallest, largest = changes[0], changes[-1]

    # 10a: Approx is the optimum; Deco_async is closest to it at small
    # change and the blocking schemes trail.
    small = data[smallest]
    assert small["approx"].throughput >= max(
        s.throughput for n, s in small.items() if n != "approx") * 0.99
    assert small["deco_async"].throughput > \
        small["deco_sync"].throughput * 0.9
    assert small["deco_async"].throughput > small["deco_mon"].throughput

    # 10b: sync/async network cost grows with the change rate; Deco_mon
    # stays minimal like Approx.
    assert data[largest]["deco_async"].result.total_bytes > \
        data[smallest]["deco_async"].result.total_bytes
    assert data[largest]["deco_mon"].result.total_bytes < \
        0.05 * data[largest]["deco_async"].result.total_bytes

    # 10c: corrections grow with the change rate; async >= sync overall.
    sync_c = [data[c]["deco_sync"].result.correction_steps
              for c in changes]
    async_c = [data[c]["deco_async"].result.correction_steps
               for c in changes]
    assert sync_c[-1] > sync_c[0]
    assert sum(async_c) >= sum(sync_c)

    # 10d: Deco schemes are exactly correct; Approx degrades with the
    # change rate.
    for change in changes:
        for scheme in ("deco_mon", "deco_sync", "deco_async"):
            # Exact-correctness contract, not a float tolerance.
            assert data[change][scheme].correctness == 1.0
    assert data[largest]["approx"].correctness < \
        data[smallest]["approx"].correctness < 1.0
