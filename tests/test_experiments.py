"""Smoke + shape tests for the experiment modules at tiny scale.

The full-shape assertions live in benchmarks/; these tests keep every
figure's code path exercised by the unit suite, quickly.
"""

from repro.experiments import fig7, fig8, fig9, fig10, fig11, micro
from repro.experiments.config import (ADAPTIVITY_SCHEMES,
                                      END_TO_END_SCHEMES, scaled)

TINY = 0.05


class TestConfigScaling:
    def test_scaled_floors(self):
        s = scaled(80_000, 40, 50_000.0, scale=0.001)
        assert s.window_size >= 512
        assert s.n_windows >= 8

    def test_scaled_full(self):
        s = scaled(80_000, 40, 50_000.0, scale=1.0)
        assert s.window_size == 80_000
        assert s.n_windows == 40


class TestFig7:
    def test_rows_7a(self):
        rows = fig7.rows_fig7a(TINY)
        assert [r[0] for r in rows] == list(END_TO_END_SCHEMES)
        assert all(float(r[1].replace(",", "")) > 0 for r in rows)

    def test_rows_7b(self):
        rows = fig7.rows_fig7b(TINY)
        assert all(float(r[1]) > 0 for r in rows)


class TestFig8:
    def test_rows_8a_savings_column(self):
        rows = fig8.rows_fig8a(TINY)
        by_name = {r[0]: r for r in rows}
        assert by_name["central"][2] == "0.0%"
        assert by_name["deco_async"][2].endswith("%")

    def test_rows_8b_node_counts(self):
        rows = fig8.rows_fig8b(TINY)
        assert [r[0] for r in rows] == list(fig8.NODE_COUNTS)


class TestFig9:
    def test_rows_9a_small_counts(self):
        rows = fig9.rows_fig9a(TINY, node_counts=(1, 2))
        assert len(rows) == 2
        deco = [float(r[-1].replace(",", "")) for r in rows]
        assert deco[1] > deco[0]  # scaling visible even at tiny scale


class TestMicro:
    def test_micro_rows(self):
        rows = micro.rows_micro(TINY, n_nodes=4)
        assert rows[0][0] == "deco_mon"
        assert rows[1][0] == "deco_monlocal"
        assert float(rows[1][1]) >= float(rows[0][1])


class TestFig10:
    def test_rate_change_sweep_structure(self):
        data = fig10.run_rate_change_sweep(TINY, changes=(0.01, 0.5))
        assert set(data) == {0.01, 0.5}
        for summaries in data.values():
            assert set(summaries) == set(ADAPTIVITY_SCHEMES)
        rows = fig10.rows_fig10a(data)
        assert rows[0][0] == "1%"
        assert fig10.rows_fig10c(data)
        # Deco correctness is 1.0 in every cell of 10d.
        for row in fig10.rows_fig10d(data):
            assert row[2] == row[3] == row[4] == "1.0000"

    def test_window_size_sweep_structure(self):
        data = fig10.run_window_size_sweep(TINY, sizes=(10_000, 20_000))
        rows = fig10.rows_fig10e(data)
        assert [r[0] for r in rows] == [10_000, 20_000]
        assert fig10.rows_fig10f(data)


class TestFig11:
    def test_rpi_throughput_rows(self):
        rows = fig11.rows_fig11a(TINY)
        assert [r[0] for r in rows] == list(END_TO_END_SCHEMES)

    def test_rpi_scalability_rows(self):
        data = fig11.run_fig11_scalability(TINY, counts=(1, 2))
        rows = [[n] + [data[n][s].throughput for s in END_TO_END_SCHEMES]
                for n in data]
        assert len(rows) == 2
