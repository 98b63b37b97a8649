"""Tests for dense causal attention on the packed kernel
(``flash_attention`` = an all-rows-dense ``PackedItem``)."""

import numpy as np
import pytest

import repro.attention.packed as packed_mod
from repro.attention import (
    PackedItem,
    dense_attention,
    flash_attention,
    packed_block_sparse_attention,
)
from repro.attention.utils import total_causal_elements
from repro.errors import ShapeError
from tests.conftest import own_workspace, random_qkv


def _dense_item_output(q, k, v, scale=None):
    item = PackedItem.dense(q, k, v, scale=scale)
    return packed_block_sparse_attention([item]).results[0]


class TestFlashAttention:
    @pytest.mark.parametrize("block_size", [1, 16, 64, 100, 256, 1024])
    def test_matches_dense_across_block_sizes(self, rng, monkeypatch, block_size):
        # The key-span width is a kernel constant; whatever it is, the
        # spans must tile each row's causal prefix exactly once.
        monkeypatch.setattr(packed_mod, "_DENSE_SPAN", block_size)
        q, k, v = random_qkv(rng, h=2, s=130, d=16)
        ref = dense_attention(q, k, v).output
        res = _dense_item_output(q, k, v)
        np.testing.assert_allclose(res.output, ref, atol=2e-5)
        assert (res.computed_elements == total_causal_elements(130, 130)).all()
        q *= 30.0  # large scores: spans join under the row max
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(flash_attention(q, k, v), ref, atol=2e-5)

    @pytest.mark.parametrize("s", [1, 2, 63, 64, 65, 257])
    def test_odd_sequence_lengths(self, rng, s):
        q, k, v = random_qkv(rng, h=2, s=s, d=8)
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(flash_attention(q, k, v), ref, atol=2e-5)

    def test_gqa(self, rng):
        q, k, v = random_qkv(rng, h=6, s=80, d=8, h_kv=3)
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(flash_attention(q, k, v), ref, atol=2e-5)

    def test_right_aligned_queries(self, rng):
        q, k, v = random_qkv(rng, h=2, s=64, d=8)
        q_tail = q[:, -7:, :]
        ref = dense_attention(q_tail, k, v).output
        out = flash_attention(q_tail, k, v)
        np.testing.assert_allclose(out, ref, atol=2e-5)

    def test_decode_shape(self, rng):
        q, k, v = random_qkv(rng, h=2, s=50, d=8)
        out = flash_attention(q[:, -1:, :], k, v)
        assert out.shape == (2, 1, 8)

    def test_extreme_logits_stable(self, rng):
        q, k, v = random_qkv(rng, h=1, s=32, d=8)
        q *= 50.0  # logits in the hundreds
        ref = dense_attention(q, k, v).output
        out = flash_attention(q, k, v)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_custom_scale(self, rng):
        q, k, v = random_qkv(rng, h=1, s=40, d=8)
        ref = dense_attention(q, k, v, scale=0.25).output
        np.testing.assert_allclose(
            flash_attention(q, k, v, scale=0.25), ref, atol=2e-5
        )

    def test_rejects_bad_tensors(self, rng):
        q, k, v = random_qkv(rng, h=2, s=8, d=4)
        with pytest.raises(ShapeError):
            flash_attention(q, k[:, :-1], v)
        with pytest.raises(ShapeError):
            flash_attention(q, k[:, :4], v[:, :4])  # more queries than keys

    def test_memory_scaling_no_score_matrix(self, rng):
        # Smoke check: a length at which a dense (H, S, S) score tensor
        # would be ~0.5 GB runs fine span by span.
        q, k, v = random_qkv(rng, h=2, s=2048, d=8)
        out = flash_attention(q, k, v)
        assert out.shape == (2, 2048, 8)


class TestFlashIsTheDenseItem:
    """``flash_attention`` is the public name of one packed dispatch."""

    S_K = 1100  # not a multiple of 64, nor of the 1024-column span

    @pytest.mark.parametrize("n_rep", [1, 2, 4])
    @pytest.mark.parametrize("s_q", [1, 63, 64, 256, S_K])
    # Unscaled ("plain") and large-norm ("stabilised") queries, both under
    # the one max-stabilised softmax.
    @pytest.mark.parametrize("gain", [1.0, 12.0], ids=["plain", "stabilised"])
    def test_bitwise_the_dense_item_and_close_to_dense(
        self, rng, n_rep, s_q, gain
    ):
        assert self.S_K % 64 and self.S_K % packed_mod._DENSE_SPAN
        q, k, v = random_qkv(rng, h=4, s=self.S_K, d=16, h_kv=4 // n_rep)
        q = q[:, -s_q:] * np.float32(gain)
        scale = 0.3
        out = flash_attention(q, k, v, scale=scale)
        res = _dense_item_output(q, k, v, scale=scale)
        assert np.array_equal(out, res.output)
        assert (res.computed_elements == total_causal_elements(s_q, self.S_K)).all()
        ref = dense_attention(q, k, v, scale=scale).output
        np.testing.assert_allclose(out, ref, atol=2e-5)

    def test_scores_spanning_plus_minus_400(self, rng):
        # The engine's real chunk regime: exp(s - m) of most entries lies
        # in or below the float32 denormal range; the clamp keeps them out
        # of the PV GEMM without moving the result.  Integer q/k at scale 1
        # make every score exact in float32, so the oracle and the kernel
        # exponentiate the same numbers (a 1-ulp score difference at 400 is
        # already 3e-5).
        q = rng.integers(-8, 9, (4, 256, 32)).astype(np.float32)
        k = rng.integers(-8, 9, (2, self.S_K, 32)).astype(np.float32)
        v = rng.standard_normal((2, self.S_K, 32)).astype(np.float32)
        scores = np.einsum("hqd,hkd->hqk", q, np.repeat(k, 2, axis=0))
        assert scores.max() > 400 and scores.min() < -400
        out = flash_attention(q, k, v, scale=1.0)
        assert np.all(np.isfinite(out))
        ref = dense_attention(q, k, v, scale=1.0).output
        np.testing.assert_allclose(out, ref, atol=2e-5)

    def test_workspace_reuse_is_bitwise(self, rng):
        q, k, v = random_qkv(rng, h=4, s=300, d=8, h_kv=2)
        with own_workspace():
            first = flash_attention(q, k, v)
            flash_attention(q[:, -5:], k[:, :77], v[:, :77])
            assert np.array_equal(flash_attention(q, k, v), first)
        assert np.array_equal(flash_attention(q, k, v), first)

    def test_dense_item_is_batch_invariant_in_a_mixed_dispatch(self, rng):
        from repro.core import plan_sample_attention
        from repro.config import DEFAULT_CONFIG

        q, k, v = random_qkv(rng, h=4, s=self.S_K, d=16, h_kv=2)
        dense = PackedItem.dense(q[:, -200:], k, v)
        q2, k2, v2 = random_qkv(rng, h=4, s=384, d=16, h_kv=2)
        sparse = PackedItem.from_plan(
            q2, k2, v2, plan_sample_attention(q2, k2, DEFAULT_CONFIG)
        )
        alone = packed_block_sparse_attention([dense]).results[0]
        for order in ([sparse, dense], [dense, sparse], [sparse, dense, sparse]):
            res = packed_block_sparse_attention(order)
            got = res.results[[it is dense for it in order].index(True)]
            assert np.array_equal(got.output, alone.output)
            assert np.array_equal(got.computed_elements, alone.computed_elements)
        sparse_alone = packed_block_sparse_attention([sparse]).results[0].output
        assert np.array_equal(
            packed_block_sparse_attention([dense, sparse]).results[1].output,
            sparse_alone,
        )
