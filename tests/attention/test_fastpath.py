"""Fast block-sparse execution path: units, equivalence, workspace reuse."""

import numpy as np
import pytest

from repro.attention import (
    BlockMask,
    block_sparse_attention,
    causal_block_mask,
    coalesce_runs,
    dense_attention,
    fast_block_sparse_attention,
    head_pattern_groups,
    random_block_mask,
    sink_block_mask,
    stripe_block_mask,
    window_block_mask,
)
from repro.attention.utils import KernelWorkspace
from tests.conftest import own_workspace


def _qkv(rng, h, s_q, s_k, d, h_kv=None):
    h_kv = h if h_kv is None else h_kv
    q = rng.standard_normal((h, s_q, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    return q, k, v


def _assert_matches_reference(q, k, v, mask, scale=None, **kw):
    ref = block_sparse_attention(q, k, v, mask, scale=scale)
    fast = fast_block_sparse_attention(q, k, v, mask, scale=scale, **kw)
    np.testing.assert_allclose(fast.output, ref.output, atol=2e-5)
    np.testing.assert_array_equal(fast.visited_blocks, ref.visited_blocks)
    assert fast.total_causal_blocks == ref.total_causal_blocks
    gold = dense_attention(q, k, v, causal=True, mask=mask.to_dense())
    np.testing.assert_allclose(fast.output, gold.output, atol=2e-5)
    return fast


class TestCoalesceRuns:
    def test_merges_contiguous_blocks(self):
        row = np.array([True, True, False, True, True, True, False, True])
        assert coalesce_runs(row) == [(0, 2), (3, 6), (7, 8)]

    def test_empty_and_full(self):
        assert coalesce_runs(np.zeros(5, dtype=bool)) == []
        assert coalesce_runs(np.ones(5, dtype=bool)) == [(0, 5)]


class TestHeadPatternGroups:
    def test_groups_identical_patterns(self):
        patterns = np.array(
            [[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=bool
        )
        groups = head_pattern_groups(patterns)
        assert len(groups) == 2
        heads0, pat0 = groups[0]
        np.testing.assert_array_equal(heads0, [0, 2])
        np.testing.assert_array_equal(pat0, patterns[0])
        heads1, _ = groups[1]
        np.testing.assert_array_equal(heads1, [1, 3])

    def test_all_distinct(self):
        patterns = np.eye(4, dtype=bool)
        assert len(head_pattern_groups(patterns)) == 4


class TestKernelWorkspace:
    def test_grow_only_reuse(self):
        ws = KernelWorkspace()
        a = ws.take("s", (4, 8))
        b = ws.take("s", (2, 4))  # smaller: view of the same buffer
        assert b.base is a or b.base is a.base
        assert ws.allocations == 1

    def test_allocations_stay_flat_across_calls(self):
        rng = np.random.default_rng(0)
        q, k, v = _qkv(rng, 4, 256, 256, 16, h_kv=2)
        mask = window_block_mask(4, 256, 256, 32, 64)
        with own_workspace() as ws:
            fast_block_sparse_attention(q, k, v, mask)
            warm = ws.allocations
            for _ in range(3):
                fast_block_sparse_attention(q, k, v, mask)
        assert ws.allocations == warm  # O(1) per call once warm

    def test_bytes_bounded_by_the_call_shapes(self):
        # A 256-row chunk against a 4096-token prefix: scratch is per
        # (q-block, heads of one KV head), so it scales with n_rep * b * S_k,
        # never H * S_q * S_k.
        rng = np.random.default_rng(1)
        h, s_q, s_k, d, b = 8, 256, 4096, 64, 64
        g = 4  # n_rep: heads per GEMM under GQA 4:1
        q, k, v = _qkv(rng, h, s_q, s_k, d, h_kv=h // g)
        stripes = [np.sort(rng.choice(s_k, 410, replace=False)) for _ in range(h)]
        mask = window_block_mask(h, s_q, s_k, b, 328) | stripe_block_mask(
            stripes, s_q, s_k, b
        )
        with own_workspace() as ws:
            fast_block_sparse_attention(q, k, v, mask)
        floats = (
            g * b * s_k  # scores
            + 2 * g * b * d  # q2, pv
            + 2 * g * b  # m, l
            + 2 * s_k * d  # k_slab, v_slab
        )
        assert 0 < ws.nbytes <= 4 * floats + b * s_k  # + the bool dead mask


class TestFastEquivalence:
    @pytest.mark.parametrize("h,h_kv", [(4, 4), (4, 2), (8, 1)])
    def test_gqa_ratios(self, h, h_kv):
        rng = np.random.default_rng(7)
        q, k, v = _qkv(rng, h, 192, 192, 16, h_kv=h_kv)
        mask = random_block_mask(h, 192, 192, 32, 0.5, rng)
        _assert_matches_reference(q, k, v, mask)

    def test_ragged_final_tiles_and_offset(self):
        rng = np.random.default_rng(8)
        q, k, v = _qkv(rng, 4, 77, 201, 16, h_kv=2)
        mask = causal_block_mask(4, 77, 201, 32)
        _assert_matches_reference(q, k, v, mask)

    def test_empty_row_mask_zero_output(self):
        rng = np.random.default_rng(9)
        q, k, v = _qkv(rng, 2, 96, 96, 8)
        mask = sink_block_mask(2, 96, 96, 32, 16)
        # Drop every tile of one head's middle block-row: dead query rows.
        blocks = mask.blocks.copy()
        blocks[1, 1, :] = False
        mask = BlockMask(blocks, 32, 96, 96)
        fast = fast_block_sparse_attention(q, k, v, mask)
        assert np.all(fast.output[1, 32:64] == 0.0)
        ref = block_sparse_attention(q, k, v, mask)
        np.testing.assert_allclose(fast.output, ref.output, atol=2e-5)

    def test_huge_logits_use_stabilised_branch(self):
        rng = np.random.default_rng(10)
        q, k, v = _qkv(rng, 2, 64, 64, 8)
        q *= 40.0  # scores far past exp's float32 range
        mask = causal_block_mask(2, 64, 64, 32)
        _assert_matches_reference(q, k, v, mask)

    def test_custom_scale_and_stats(self):
        rng = np.random.default_rng(11)
        q, k, v = _qkv(rng, 4, 128, 128, 16, h_kv=2)
        mask = window_block_mask(4, 128, 128, 32, 48)
        fast = _assert_matches_reference(q, k, v, mask, scale=0.25)
        assert fast.stats is not None
        for key in ("runs_coalesced", "head_groups", "gemm_calls",
                    "tiles_visited", "mode"):
            assert key in fast.stats
        assert fast.stats["mode"] == "fast"
        assert fast.stats["tiles_visited"] == int(fast.visited_blocks.sum())


class TestDispatchAndParallel:
    def test_dispatch_modes_agree(self):
        """The two block kernels, called by name, agree on a random mask."""
        rng = np.random.default_rng(12)
        q, k, v = _qkv(rng, 4, 160, 160, 16, h_kv=2)
        mask = random_block_mask(4, 160, 160, 32, 0.6, rng)
        ref = block_sparse_attention(q, k, v, mask)
        fast = fast_block_sparse_attention(q, k, v, mask)
        np.testing.assert_allclose(fast.output, ref.output, atol=2e-5)
        assert ref.stats is None
        assert "threads" not in fast.stats
