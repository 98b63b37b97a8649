"""Tests for stage 2: score-based key-value filtering."""

import numpy as np
import pytest

from repro.core import PAPER_PREFIX_RATIOS, select_kv_indices
from repro.errors import ConfigError


def make_scores(weights):
    return np.asarray([weights], dtype=np.float64)


class TestExactSelection:
    def test_minimal_prefix(self):
        # Masses 0.5, 0.3, 0.15, 0.05: alpha=0.8 needs the top two.
        res = select_kv_indices(make_scores([0.5, 0.3, 0.15, 0.05]), 0.8)
        np.testing.assert_array_equal(res.kv_indices[0], [0, 1])
        assert res.achieved_share[0] == pytest.approx(0.8)

    def test_alpha_one_keeps_support(self):
        res = select_kv_indices(make_scores([0.5, 0.5, 0.0]), 1.0)
        np.testing.assert_array_equal(res.kv_indices[0], [0, 1])

    def test_order_invariance(self):
        res = select_kv_indices(make_scores([0.05, 0.3, 0.15, 0.5]), 0.8)
        np.testing.assert_array_equal(res.kv_indices[0], [1, 3])

    def test_indices_sorted_ascending(self):
        rng = np.random.default_rng(0)
        scores = rng.random((3, 50))
        res = select_kv_indices(scores, 0.5)
        for idx in res.kv_indices:
            assert np.all(np.diff(idx) > 0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        scores = rng.random((2, 100))
        k_prev = np.zeros(2)
        for alpha in (0.3, 0.5, 0.8, 0.95, 0.99):
            res = select_kv_indices(scores, alpha)
            ks = np.array([len(ix) for ix in res.kv_indices])
            assert np.all(ks >= k_prev)
            k_prev = ks

    def test_share_meets_alpha(self):
        rng = np.random.default_rng(2)
        scores = rng.random((4, 200))
        res = select_kv_indices(scores, 0.9)
        assert np.all(res.achieved_share >= 0.9 - 1e-9)

    def test_per_head_independence(self):
        scores = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        res = select_kv_indices(scores, 0.9)
        np.testing.assert_array_equal(res.kv_indices[0], [0])
        np.testing.assert_array_equal(res.kv_indices[1], [2])

    def test_kv_ratio(self):
        scores = np.array([[1.0, 0.0, 0.0, 0.0]])
        res = select_kv_indices(scores, 0.9)
        assert res.kv_ratio[0] == pytest.approx(0.25)

    def test_min_keep(self):
        scores = np.array([[1.0, 0.0, 0.0, 0.0]])
        res = select_kv_indices(scores, 0.5, min_keep=3)
        assert len(res.kv_indices[0]) == 3

    def test_dead_head_fallback(self):
        scores = np.zeros((1, 8))
        res = select_kv_indices(scores, 0.9, min_keep=2)
        np.testing.assert_array_equal(res.kv_indices[0], [0, 1])
        assert res.achieved_share[0] == 0.0

    def test_uniform_scores_need_alpha_fraction(self):
        scores = np.ones((1, 1000))
        res = select_kv_indices(scores, 0.95)
        assert len(res.kv_indices[0]) == 950


class TestQuantizedSelection:
    def test_rounds_up_to_grid(self):
        # Exact selection would keep 2 of 80 columns; the paper grid's
        # smallest prefix is ceil(0.0125 * 80) = 1, next 2 -> grid hit.
        scores = np.zeros((1, 80))
        scores[0, :2] = [0.6, 0.4]
        res = select_kv_indices(scores, 0.9, mode="quantized")
        assert len(res.kv_indices[0]) in (2,)

    def test_never_below_exact(self):
        rng = np.random.default_rng(3)
        scores = rng.random((3, 160)) ** 4
        exact = select_kv_indices(scores, 0.9, mode="exact")
        quant = select_kv_indices(scores, 0.9, mode="quantized")
        for e, q in zip(exact.kv_indices, quant.kv_indices):
            assert len(q) >= len(e)

    def test_grid_sizes_only(self):
        rng = np.random.default_rng(4)
        s_k = 160
        scores = rng.random((5, s_k))
        res = select_kv_indices(scores, 0.9, mode="quantized")
        grid = {
            min(max(1, int(np.ceil(r * s_k))), s_k) for r in PAPER_PREFIX_RATIOS
        }
        for idx in res.kv_indices:
            assert len(idx) in grid

    def test_quantized_meets_alpha(self):
        rng = np.random.default_rng(5)
        scores = rng.random((4, 200))
        res = select_kv_indices(scores, 0.8, mode="quantized")
        assert np.all(res.achieved_share >= 0.8 - 1e-9)


class TestValidation:
    def test_rejects_bad_rank(self):
        with pytest.raises(ConfigError):
            select_kv_indices(np.ones(5), 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            select_kv_indices(np.ones((1, 5)), 0.0)
        with pytest.raises(ConfigError):
            select_kv_indices(np.ones((1, 5)), 1.5)

    def test_rejects_negative_scores(self):
        with pytest.raises(ConfigError):
            select_kv_indices(np.array([[-0.1, 1.0]]), 0.5)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            select_kv_indices(np.ones((1, 5)), 0.5, mode="fuzzy")
