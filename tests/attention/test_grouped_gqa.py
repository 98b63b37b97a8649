"""Grouped GQA GEMMs: no-copy semantics and einsum-parity micro-tests."""

import numpy as np
import pytest

import repro.attention.blocksparse as blocksparse_mod
import repro.attention.fastpath as fastpath_mod
import repro.attention.packed as packed_mod
import repro.core.sampling as sampling_mod
from repro.attention import (
    block_sparse_attention,
    dense_attention,
    expand_kv,
    fast_block_sparse_attention,
    flash_attention,
    window_block_mask,
)
from repro.attention.utils import grouped_pv, grouped_qk
from repro.core.sampling import sample_column_scores, sampled_row_indices


def _gqa_qkv(seed=0, h=8, h_kv=2, s=192, d=16):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((h, s, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s, d), dtype=np.float32)
    return q, k, v


class TestGroupedMatmuls:
    def test_qk_matches_expanded_einsum(self):
        q, k, _ = _gqa_qkv()
        expected = np.einsum(
            "hqd,hkd->hqk", q, expand_kv(k, q.shape[0] // k.shape[0]),
            optimize=True,
        )
        np.testing.assert_allclose(grouped_qk(q, k), expected, atol=1e-5)

    def test_pv_matches_expanded_einsum(self):
        q, k, v = _gqa_qkv()
        p = np.abs(grouped_qk(q, k))
        expected = np.einsum(
            "hqk,hkd->hqd", p, expand_kv(v, q.shape[0] // v.shape[0]),
            optimize=True,
        )
        np.testing.assert_allclose(grouped_pv(p, v), expected, atol=1e-3)

    def test_mha_passthrough(self):
        q, k, _ = _gqa_qkv(h=4, h_kv=4)
        expected = np.einsum("hqd,hkd->hqk", q, k, optimize=True)
        np.testing.assert_allclose(grouped_qk(q, k), expected, atol=1e-5)

    def test_view_input_no_copy_reshape(self):
        # Splitting the leading head axis of a query *tile view* must not
        # force a copy -- stage-1 sampling feeds such row views.
        q, k, _ = _gqa_qkv()
        tile = q[:, 32:96]
        assert tile.base is q
        np.testing.assert_allclose(
            grouped_qk(tile, k),
            np.einsum(
                "hqd,hkd->hqk", np.ascontiguousarray(tile),
                expand_kv(k, 4), optimize=True,
            ),
            atol=1e-5,
        )


class TestNoSilentExpansion:
    """No kernel may fall back to the O(H * S_k * d) repeated-KV copy."""

    @pytest.fixture()
    def forbid_expand(self, monkeypatch):
        def _raise(x, n_rep):
            if n_rep > 1:
                raise AssertionError(
                    "expand_kv materialised repeated KV heads on a hot path"
                )
            return x

        for mod in (blocksparse_mod, fastpath_mod, packed_mod, sampling_mod):
            if hasattr(mod, "expand_kv"):
                monkeypatch.setattr(mod, "expand_kv", _raise)
        monkeypatch.setattr(
            "repro.attention.utils.expand_kv", _raise
        )

    def test_kernels_run_without_expansion(self, forbid_expand):
        q, k, v = _gqa_qkv(seed=3)
        gold = dense_attention(q, k, v, causal=True).output
        flash = flash_attention(q, k, v)
        np.testing.assert_allclose(flash, gold, atol=2e-5)

        mask = window_block_mask(q.shape[0], 192, 192, 32, 64)
        ref = block_sparse_attention(q, k, v, mask)
        fast = fast_block_sparse_attention(q, k, v, mask)
        np.testing.assert_allclose(fast.output, ref.output, atol=2e-5)

        rows = sampled_row_indices(192, 0.1)
        stats = sample_column_scores(q, k, rows)
        assert stats.column_scores.shape == (q.shape[0], 192)


class TestOutputsUnchanged:
    """Matmul rewrites leave kernel outputs at float32 parity."""

    def test_flash_vs_dense_gqa(self):
        q, k, v = _gqa_qkv(seed=5, h=6, h_kv=3, s=130)
        np.testing.assert_allclose(
            flash_attention(q, k, v),
            dense_attention(q, k, v, causal=True).output,
            atol=2e-5,
        )

    def test_sampling_matches_manual_softmax(self):
        q, k, _ = _gqa_qkv(seed=6, s=96)
        rows = sampled_row_indices(96, 0.2)
        stats = sample_column_scores(q, k, rows)
        kf = expand_kv(k, q.shape[0] // k.shape[0])
        scale = 1.0 / np.sqrt(q.shape[2])
        s = np.einsum("hcd,hkd->hck", q[:, rows], kf) * scale
        visible = np.arange(96)[None, :] <= rows[:, None]
        s = np.where(visible[None], s, -1e30)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p = np.where(visible[None], p, 0.0)
        p /= p.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(
            stats.column_scores, p.sum(axis=1), atol=2e-4
        )
