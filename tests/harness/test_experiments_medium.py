"""Smoke tests for the substrate-backed analysis experiments (medium cost).

These run fig9/fig11/table6/plan end to end at quick scale and assert their
shape.  Every other non-drill experiment, the accuracy ones included, is
held byte-identical at a tiny scale by ``test_experiment_tables.py``.
"""

import numpy as np

from repro.harness.experiments import run_experiment


class TestFig9:
    def test_heatmaps_render(self):
        tables = run_experiment("fig9")
        assert len(tables) == 12  # 4 layers x 3 heads
        # Every heatmap row is a fixed-width string.
        first = tables[0]
        widths = {len(r[0]) for r in first.rows}
        assert len(widths) == 1


class TestFig11:
    def test_retention_deciles(self):
        tables = run_experiment("fig11")
        t = tables[0]
        assert len(t.rows) == 10
        dense_col = t.headers[1]
        sparse_col = t.headers[2]
        dense = np.array(t.column(dense_col), dtype=float)
        sparse = np.array(t.column(sparse_col), dtype=float)
        assert dense.mean() > sparse.mean()


class TestTable6:
    def test_sampling_tracks_full(self):
        tables = run_experiment("table6")
        t = tables[0]
        full = np.array(t.column("CRA_full_sampling"), dtype=float)
        samp = np.array(t.column("CRA_5pct_sampling"), dtype=float)
        # 5% sampling is a faithful proxy for the full column statistic.
        assert np.abs(full - samp).max() < 0.15
        # CRA grows with the stripe budget within each head block.
        for start in range(0, len(full), 6):
            block = full[start : start + 6]
            assert np.all(np.diff(block) >= -1e-6)


class TestPlanDemo:
    def test_per_layer_summary(self):
        tables = run_experiment("plan")
        t = tables[0]
        assert len(t.rows) == 4
        densities = np.array(t.column("element_density"), dtype=float)
        assert np.all((densities > 0) & (densities < 1))
