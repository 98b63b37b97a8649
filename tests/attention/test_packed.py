"""Packed cross-request dispatch: parity, accounting, packing stats."""

import concurrent.futures
import inspect
import threading

import numpy as np
import pytest

from repro.attention import (
    KernelWorkspace,
    block_sparse_attention,
    dense_attention,
    fast_block_sparse_attention,
    packed_block_sparse_attention,
    random_block_mask,
    window_block_mask,
)
from repro.attention.packed import PackedItem
from repro.errors import MaskError, ShapeError

TOL = 2e-5


def _item(rng, h, s_q, s_k, d, h_kv=None, block=16, density=0.5, window=None):
    h_kv = h if h_kv is None else h_kv
    q = rng.standard_normal((h, s_q, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    if window is not None:
        mask = window_block_mask(h, s_q, s_k, block, window)
    else:
        mask = random_block_mask(h, s_q, s_k, block, density, rng)
    return PackedItem(q=q, k=k, v=v, mask=mask)


def _assert_item_parity(item, got, ws):
    ref = fast_block_sparse_attention(
        item.q, item.k, item.v, item.mask, scale=item.scale, workspace=ws
    )
    np.testing.assert_allclose(got.output, ref.output, atol=TOL)
    np.testing.assert_array_equal(got.visited_blocks, ref.visited_blocks)
    assert got.total_causal_blocks == ref.total_causal_blocks
    gold = dense_attention(
        item.q, item.k, item.v, mask=item.mask.to_dense(), scale=item.scale
    )
    np.testing.assert_allclose(got.output, gold.output, atol=TOL)


class TestPackedParity:
    def test_ragged_lengths_one_dispatch(self, rng):
        items = [
            _item(rng, 4, s_q, s_k, 16)
            for s_q, s_k in [(16, 48), (48, 48), (1, 33), (17, 80)]
        ]
        ws = KernelWorkspace()
        res = packed_block_sparse_attention(items, workspace=ws)
        assert res.stats["dispatches"] == 1
        assert res.stats["packed_requests"] == 4
        assert list(res.cu_seqlens) == [0, 16, 64, 65, 82]
        for item, got in zip(items, res.results):
            _assert_item_parity(item, got, ws)

    @pytest.mark.parametrize("h,h_kv", [(4, 4), (4, 2), (6, 2), (8, 1)])
    def test_gqa_ratios(self, rng, h, h_kv):
        items = [
            _item(rng, h, 32, 64, 8, h_kv=h_kv),
            _item(rng, h, 24, 40, 8, h_kv=h_kv, window=24),
        ]
        ws = KernelWorkspace()
        res = packed_block_sparse_attention(items, workspace=ws)
        for item, got in zip(items, res.results):
            _assert_item_parity(item, got, ws)

    def test_mixed_head_patterns_across_batch(self, rng):
        # One dense-window item, one sparse-random item, one where every
        # head shares the same pattern (single group) -- merged groups
        # must still unpack each item exactly.
        full = _item(rng, 4, 32, 32, 8, window=32)
        sparse = _item(rng, 4, 32, 64, 8, density=0.3)
        blocks = np.zeros((4, 2, 3), dtype=bool)
        blocks[:, :, 0] = True
        blocks[:, 1, 1:] = True
        shared = PackedItem(
            q=rng.standard_normal((4, 32, 8), dtype=np.float32),
            k=rng.standard_normal((4, 48, 8), dtype=np.float32),
            v=rng.standard_normal((4, 48, 8), dtype=np.float32),
            mask=full.mask.__class__(blocks=blocks, block_size=16, s_q=32, s_k=48),
        )
        ws = KernelWorkspace()
        res = packed_block_sparse_attention([full, sparse, shared], workspace=ws)
        for item, got in zip([full, sparse, shared], res.results):
            _assert_item_parity(item, got, ws)

    def test_identical_plans_share_indexing(self, rng):
        base = _item(rng, 4, 32, 64, 8, density=0.4)
        twin = PackedItem(
            q=rng.standard_normal((4, 32, 8), dtype=np.float32),
            k=rng.standard_normal((4, 64, 8), dtype=np.float32),
            v=rng.standard_normal((4, 64, 8), dtype=np.float32),
            mask=base.mask,
        )
        res = packed_block_sparse_attention([base, twin])
        assert res.stats["unique_patterns"] == 1
        assert res.stats["pattern_hits"] >= 1
        ws = KernelWorkspace()
        for item, got in zip([base, twin], res.results):
            _assert_item_parity(item, got, ws)

    def test_k_norm_sq_hint_matches_full_reduction(self, rng):
        item = _item(rng, 4, 32, 64, 8)
        kf = item.k.astype(np.float32)
        hint = float(np.einsum("hsd,hsd->hs", kf, kf).max())
        with_hint = PackedItem(
            q=item.q, k=item.k, v=item.v, mask=item.mask, k_norm_sq=hint
        )
        a = packed_block_sparse_attention([item])
        b = packed_block_sparse_attention([with_hint])
        np.testing.assert_array_equal(a.results[0].output, b.results[0].output)

    def test_scale_and_dtype_roundtrip(self, rng):
        item = _item(rng, 2, 16, 32, 8)
        scaled = PackedItem(
            q=item.q.astype(np.float64),
            k=item.k.astype(np.float64),
            v=item.v.astype(np.float64),
            mask=item.mask,
            scale=0.5,
        )
        res = packed_block_sparse_attention([scaled])
        assert res.results[0].output.dtype == np.float64
        ref = fast_block_sparse_attention(
            item.q, item.k, item.v, item.mask, scale=0.5
        )
        np.testing.assert_allclose(
            res.results[0].output.astype(np.float32), ref.output, atol=TOL
        )

    def test_runs_in_the_callers_thread(self, rng, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("packed prefill must not build a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        res = packed_block_sparse_attention(
            [_item(rng, 4, 24, 48, 8) for _ in range(4)]
        )
        assert threading.active_count() == before
        assert "threads" not in res.stats
        assert "num_threads" not in inspect.signature(
            packed_block_sparse_attention
        ).parameters


class TestPackedStats:
    def test_empty_batch(self):
        res = packed_block_sparse_attention([])
        assert res.results == []
        assert res.stats["dispatches"] == 1
        assert res.stats["packed_requests"] == 0
        assert list(res.cu_seqlens) == [0]

    def test_tiles_visited_matches_reference_billing(self, rng):
        items = [_item(rng, 4, 32, 64, 8, density=0.4) for _ in range(3)]
        res = packed_block_sparse_attention(items)
        total = 0
        for item, got in zip(items, res.results):
            ref = block_sparse_attention(item.q, item.k, item.v, item.mask)
            np.testing.assert_array_equal(got.visited_blocks, ref.visited_blocks)
            total += int(ref.visited_blocks.sum())
        assert res.stats["tiles_visited"] == total

    def test_gemm_calls_fewer_than_per_request(self, rng):
        items = [_item(rng, 4, 64, 128, 16, density=0.5) for _ in range(4)]
        packed = packed_block_sparse_attention(items)
        per_request = 0
        ws = KernelWorkspace()
        for item in items:
            ref = fast_block_sparse_attention(
                item.q, item.k, item.v, item.mask, workspace=ws
            )
            per_request += int((ref.stats or {}).get("gemm_calls", 0))
        assert 0 < packed.stats["gemm_calls"] <= per_request


class TestPackedValidation:
    def test_mismatched_heads_rejected(self, rng):
        a = _item(rng, 4, 16, 32, 8)
        b = _item(rng, 2, 16, 32, 8)
        with pytest.raises(ShapeError):
            packed_block_sparse_attention([a, b])

    def test_mismatched_mask_geometry_rejected(self, rng):
        a = _item(rng, 4, 16, 32, 8)
        bad = PackedItem(
            q=a.q, k=a.k, v=a.v,
            mask=window_block_mask(4, 16, 48, 16, 8),
        )
        with pytest.raises(MaskError):
            packed_block_sparse_attention([bad])
