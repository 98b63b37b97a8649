"""Tests for oracle sparsity degree (paper Definition 1)."""

import numpy as np
import pytest

from repro.analysis import (
    dense_probs,
    kv_retention_frequency,
    model_sparsity_sweep,
    model_sparsity_sweep_multi,
    oracle_row_keep_counts,
    oracle_sd,
)
from repro.errors import ConfigError


def causal_uniform(s):
    """Uniform causal attention: row i spreads 1/(i+1) over 0..i."""
    p = np.zeros((1, s, s))
    for i in range(s):
        p[0, i, : i + 1] = 1.0 / (i + 1)
    return p


def one_hot_diag(s):
    p = np.zeros((1, s, s))
    p[0, np.arange(s), np.arange(s)] = 1.0
    return p


class TestOracleKeepCounts:
    def test_one_hot_keeps_one(self):
        keep = oracle_row_keep_counts(one_hot_diag(8), 0.95)
        np.testing.assert_array_equal(keep, 1)

    def test_uniform_keeps_alpha_fraction(self):
        keep = oracle_row_keep_counts(causal_uniform(100), 0.5)
        # Row 99 has 100 equal entries: needs exactly 50.
        assert keep[0, 99] == 50

    def test_alpha_one_keeps_support(self):
        keep = oracle_row_keep_counts(causal_uniform(10), 1.0)
        np.testing.assert_array_equal(keep[0], np.arange(1, 11))

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(0)
        p = rng.random((1, 20, 20))
        p /= p.sum(axis=-1, keepdims=True)
        prev = np.zeros((1, 20))
        for alpha in (0.3, 0.6, 0.9):
            keep = oracle_row_keep_counts(p, alpha)
            assert np.all(keep >= prev)
            prev = keep

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            oracle_row_keep_counts(one_hot_diag(4), 0.0)


class TestOracleSd:
    def test_one_hot_near_one(self):
        sd = oracle_sd(one_hot_diag(64), 0.95)
        assert sd[0] > 0.95

    def test_uniform_low(self):
        sd = oracle_sd(causal_uniform(64), 0.95)
        # Keeps ~95% of the causal grid -> SD ~ 5%.
        assert 0.0 < sd[0] < 0.15

    def test_normalisation_matches_definition(self):
        s = 16
        sd = oracle_sd(one_hot_diag(s), 0.9)
        expected = 1.0 - s / (s * s / 2.0)
        assert sd[0] == pytest.approx(expected)


class TestRetentionFrequency:
    def test_diag_head_retains_own_column_once(self):
        freq = kv_retention_frequency(one_hot_diag(8), 0.9)
        np.testing.assert_allclose(freq[0], 1.0 / 8)

    def test_sink_column_retained_everywhere(self):
        s = 16
        p = np.zeros((1, s, s))
        p[0, :, 0] = 0.99
        p[0, np.arange(s), np.arange(s)] += 0.01
        p[0, 0, 0] = 1.0
        p /= p.sum(axis=-1, keepdims=True)
        freq = kv_retention_frequency(p, 0.9)
        assert freq[0, 0] == pytest.approx(1.0)

    def test_values_in_unit_interval(self, glm_mini, rng):
        tokens = rng.integers(16, 200, size=96)
        freq = kv_retention_frequency(dense_probs(glm_mini, tokens)[0][:2], 0.95)
        assert freq.min() >= 0.0 and freq.max() <= 1.0


class TestModelSweep:
    def test_shapes_and_range(self, glm_mini, rng):
        tokens = rng.integers(16, 1000, size=128)
        sweep = model_sparsity_sweep(glm_mini, tokens, alpha=0.95)
        assert sweep.per_head.shape == (4, 8)
        assert sweep.per_layer.shape == (4,)
        assert 0.0 <= sweep.min_head <= sweep.mean <= 1.0
        assert sweep.seq_len == 128

    def test_multi_matches_single(self, glm_mini, rng):
        tokens = rng.integers(16, 1000, size=96)
        multi = model_sparsity_sweep_multi(glm_mini, tokens, (0.9, 0.95))
        single = model_sparsity_sweep(glm_mini, tokens, alpha=0.9)
        np.testing.assert_allclose(
            multi[0.9].per_head, single.per_head, atol=1e-9
        )

    def test_multi_rejects_empty(self, glm_mini, rng):
        with pytest.raises(ConfigError):
            model_sparsity_sweep_multi(glm_mini, rng.integers(16, 99, size=32), ())

    def test_constructed_model_is_sparse_with_one_dense_head(self, glm_mini):
        """The substrate reproduces Figure 2c's disparity: high average SD
        with a deliberately dense head per layer."""
        from repro.tasks import make_needle_case

        case = make_needle_case(512, 0.5, rng=np.random.default_rng(3))
        sweep = model_sparsity_sweep(glm_mini, case.prompt, alpha=0.95)
        assert sweep.mean > 0.75
        assert sweep.min_head < 0.2
