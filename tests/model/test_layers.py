"""Tests for decoder building blocks: norms, MLP, attention layer."""

import numpy as np
import pytest

from repro.backends import FullAttentionBackend
from repro.errors import ModelError
from repro.model import ModelConfig
from repro.model.kv_cache import LayerKVCache
from repro.model.layers import AttentionLayer, gated_mlp, rms_norm
from repro.model.weights import random_weights


@pytest.fixture()
def layer_and_config():
    config = ModelConfig(
        n_layers=1, n_heads=4, n_kv_heads=2, vocab_size=64, name="t"
    )
    weights = random_weights(config, seed=0, scale=0.1)
    return AttentionLayer(config, weights.layers[0]), config


class TestRmsNorm:
    def test_unit_rms(self, rng):
        x = rng.standard_normal((5, 32)) * 7.0
        y = rms_norm(x)
        np.testing.assert_allclose(
            np.sqrt(np.mean(y**2, axis=-1)), 1.0, rtol=1e-4
        )

    def test_scale_invariance(self, rng):
        x = rng.standard_normal((3, 16))
        np.testing.assert_allclose(rms_norm(x), rms_norm(10.0 * x), rtol=1e-4)

    def test_zero_input_finite(self):
        y = rms_norm(np.zeros((2, 8)))
        assert np.all(np.isfinite(y))


class TestGatedMlp:
    def test_zero_weights_zero_output(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32)
        z = np.zeros((8, 16), dtype=np.float32)
        out = gated_mlp(x, z, np.zeros((16, 8), dtype=np.float32), z)
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_manual(self, rng):
        x = rng.standard_normal((2, 4)).astype(np.float64)
        w1 = rng.standard_normal((4, 6))
        w2 = rng.standard_normal((6, 4))
        w3 = rng.standard_normal((4, 6))
        h = x @ w1
        silu = h / (1 + np.exp(-h))
        expected = (silu * (x @ w3)) @ w2
        np.testing.assert_allclose(gated_mlp(x, w1, w2, w3), expected, rtol=1e-9)


class TestAttentionLayer:
    def test_prefill_shapes(self, rng, layer_and_config):
        layer, config = layer_and_config
        x = rng.standard_normal((20, config.d_model)).astype(np.float32)
        delta = layer.prefill(x, FullAttentionBackend())
        assert delta.shape == (20, config.d_model)

    def test_projection_shapes(self, rng, layer_and_config):
        layer, config = layer_and_config
        x = rng.standard_normal((10, config.d_model)).astype(np.float32)
        q, k, v = layer.project_qkv(x, np.arange(10))
        assert q.shape == (config.n_heads, 10, config.d_head)
        assert k.shape == (config.n_kv_heads, 10, config.d_head)
        assert v.shape == k.shape

    def test_rejects_bad_residual(self, rng, layer_and_config):
        layer, config = layer_and_config
        with pytest.raises(ModelError):
            layer.project_qkv(
                rng.standard_normal((10, config.d_model + 1)).astype(np.float32),
                np.arange(10),
            )

    def test_prefill_populates_cache(self, rng, layer_and_config):
        layer, config = layer_and_config
        x = rng.standard_normal((8, config.d_model)).astype(np.float32)
        cache = LayerKVCache(config.n_kv_heads, config.d_head)
        layer.prefill(x, FullAttentionBackend(), cache=cache)
        assert len(cache) == 8
        q, k, v = layer.project_qkv(x, np.arange(8))
        np.testing.assert_allclose(cache.keys, k, atol=1e-6)

    def test_prob_hook_receives_probs(self, rng, layer_and_config):
        layer, config = layer_and_config
        x = rng.standard_normal((6, config.d_model)).astype(np.float32)
        seen = []
        layer.prefill(x, FullAttentionBackend(), prob_hook=seen.append)
        assert seen[0].shape == (config.n_heads, 6, 6)
        np.testing.assert_allclose(seen[0].sum(axis=-1), 1.0, rtol=1e-5)
