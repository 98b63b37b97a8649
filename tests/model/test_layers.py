"""Tests for decoder building blocks: norms, MLP, attention layer."""

import numpy as np
import pytest

from repro import pool
from repro.analysis import dense_probs
from repro.errors import ModelError
from repro.model import ModelConfig, Transformer
from repro.model.layers import (
    _SMALL_GEMM,
    _row_gemm,
    decode_gemm,
    gated_mlp,
    rms_norm,
)
from repro.model.rope import rope_cos_sin, rotate_pairs
from repro.model.weights import random_weights


@pytest.fixture()
def one_layer_model():
    config = ModelConfig(
        n_layers=1, n_heads=4, n_kv_heads=2, vocab_size=64, name="t"
    )
    return Transformer(random_weights(config, seed=0, scale=0.1))


@pytest.fixture()
def layer_and_config(one_layer_model):
    return one_layer_model.layers[0], one_layer_model.config


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
    """The layer's projections, and the layer inside the model's one
    forward pass (:meth:`Transformer.prefill` over a one-layer model)."""

    def test_prefill_shapes(self, rng, one_layer_model):
        tokens = rng.integers(0, 64, size=20)
        hidden, _ = one_layer_model.prefill(tokens)
        assert hidden.shape == (20, one_layer_model.config.d_model)

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

    def test_prefill_populates_cache(self, rng, one_layer_model):
        tokens = rng.integers(0, 64, size=8)
        (cache,) = caches = one_layer_model.new_caches()
        one_layer_model.prefill(tokens, caches=caches)
        assert len(cache) == 8
        x = one_layer_model.embed(tokens)  # the first layer's input
        _, k, _ = one_layer_model.layers[0].project_qkv(x, np.arange(8))
        np.testing.assert_allclose(cache.keys, k, atol=1e-6)

    def test_captured_probs_are_distributions(self, rng, one_layer_model):
        (probs,) = dense_probs(one_layer_model, rng.integers(0, 64, size=6))
        assert probs.shape == (one_layer_model.config.n_heads, 6, 6)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)


#: ``(K, N)`` weights decode multiplies by: glm-mini's q/k/v, k/v, output
#: projection and unembedding, the tiny test model's MLP, and three more.
DECODE_SHAPES = [
    (148, 1280), (148, 640), (640, 148), (148, 1024), (148, 148),
    (128, 256), (100, 300), (320, 148),
]


class TestDecodeGemm:
    """:func:`decode_gemm` rests on two properties of the BLAS: a row's bits
    do not depend on how many rows the small-matrix kernel computes with it,
    and a one-row product (gemv) sums in another order, so a lone row is
    padded.  A group one row past the cut-off leaves the small kernel."""

    @pytest.mark.parametrize("k,n", DECODE_SHAPES)
    def test_rows_are_batch_invariant(self, rng, k, n):
        w = rng.standard_normal((k, n), dtype=np.float32)
        group = _SMALL_GEMM // (k * n)
        x = rng.standard_normal((2 * group + 1, k), dtype=np.float32)
        alone = [decode_gemm(x[b : b + 1], w)[0] for b in range(len(x))]
        for m in range(1, 2 * group + 2):
            out = decode_gemm(x[:m], w)
            assert out.shape == (m, n)
            for b in range(m):
                np.testing.assert_array_equal(out[b], alone[b])
        np.testing.assert_allclose(np.stack(alone), x @ w, rtol=1e-4, atol=1e-4)

    def test_weight_past_the_small_kernel_takes_row_gemm(self, rng):
        k = n = 800  # two rows exceed the cut-off
        w = rng.standard_normal((k, n), dtype=np.float32)
        x = rng.standard_normal((3, k), dtype=np.float32)
        out = decode_gemm(x, w)
        np.testing.assert_array_equal(out, _row_gemm(x, w))
        for b in range(3):
            np.testing.assert_array_equal(out[b], decode_gemm(x[b : b + 1], w)[0])


def _transposed_view_project(layer, x, positions, *, with_q):
    """The projection as it read its fused weight before: a transposed view
    of one ``((H + 2 H_kv) e, d_model)`` row per output feature."""
    c = layer.config
    h_kv, e = c.n_kv_heads, c.d_head
    h = c.n_heads if with_q else 0
    rows = np.concatenate(
        [
            m.transpose(0, 2, 1).reshape(-1, c.d_model)
            for m in (layer.weights.wq, layer.weights.wk, layer.weights.wv)
        ]
    )

    def rotate(out, r0, r1):
        cos, sin = rope_cos_sin(positions[r0:r1], c.rot_dim, c.rope_base)
        qk = out.reshape(r1 - r0, h + 2 * h_kv, e)[:, : h + h_kv]
        rotate_pairs(qk, cos[:, None], sin[:, None])

    heads = _row_gemm(x, rows[(c.n_heads - h) * e :].T, rotate)
    heads = heads.reshape(len(x), h + 2 * h_kv, e)
    cuts = [0, h, h + h_kv, h + 2 * h_kv] if h else [0, h_kv, 2 * h_kv]
    return [heads[:, lo:hi].transpose(1, 0, 2) for lo, hi in zip(cuts, cuts[1:])]


class TestContiguousFusedWeight:
    """The fused q/k/v weight is stored ``(d_model, (H + 2 H_kv) e)``
    C-contiguous; prefill's projections read it untransposed and give
    bitwise the transposed-view products."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prefill_projections_match_transposed_view(self, glm_mini, workers):
        rng = np.random.default_rng(workers)
        layer = glm_mini.layers[1]
        with pool._forced_workers(workers):
            for s in (1, 2, 3, 8, 64, 127, 128, 129, 256, 511, 1024):
                x = rng.standard_normal((s, glm_mini.config.d_model), dtype=np.float32)
                pos = rng.integers(0, 4096, size=s)
                for with_q, project in (
                    (True, layer.project_qkv), (False, layer.project_kv),
                ):
                    want = _transposed_view_project(layer, x, pos, with_q=with_q)
                    for got, ref in zip(project(x, pos), want, strict=True):
                        np.testing.assert_array_equal(got, ref)
