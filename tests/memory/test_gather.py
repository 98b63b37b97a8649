"""Tests for the batched block-table gather (fused decode KV views)."""

import numpy as np

from repro.memory import BatchedKVGather, KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H, D, BT = 2, 8, 4


def fill(cache, n, *, start=0, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n, D)).astype(np.float32)
    v = rng.standard_normal((H, n, D)).astype(np.float32)
    cache.append(k, v, np.arange(start, start + n, dtype=np.int64))


def interleaved_pair(arena):
    """Two paged caches whose blocks interleave: both fragmented."""
    a, b = PagedLayerKVCache(arena), PagedLayerKVCache(arena)
    fill(a, BT, seed=1)           # block 0
    fill(b, BT, seed=2)           # block 1
    fill(a, BT, start=BT, seed=3)  # block 2 -> a holds [0, 2]
    fill(b, BT, start=BT, seed=4)  # block 3 -> b holds [1, 3]
    return a, b


class TestFastPaths:
    def test_contiguous_cache_passes_through(self):
        cache = LayerKVCache(H, D)
        fill(cache, 6)
        g = BatchedKVGather()
        out = g(0, [(0, cache)])
        k, v = out[0]
        np.testing.assert_array_equal(k, cache.keys)
        np.testing.assert_array_equal(v, cache.values)
        assert g.view_only_dispatches == 1
        assert g.gathered_tokens == 0 and g.viewed_tokens == 0

    def test_unfragmented_paged_cache_is_zero_copy(self):
        arena = KVArena(8, H, BT, D)
        cache = PagedLayerKVCache(arena)
        fill(cache, 2 * BT + 1)
        g = BatchedKVGather()
        (k, v) = g(0, [(0, cache)])[0]
        np.testing.assert_array_equal(k, cache.keys)
        assert np.shares_memory(k, arena._k)  # the arena itself, no copy
        assert g.viewed_tokens == 2 * BT + 1
        assert g.view_only_dispatches == 1 and cache.mirror_nbytes == 0


class TestMirrorGather:
    def test_fragmented_caches_match_cache_views_bitwise(self):
        arena = KVArena(8, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        out = g(0, [(0, a), (1, b)])
        np.testing.assert_array_equal(out[0][0], a.keys)
        np.testing.assert_array_equal(out[0][1], a.values)
        np.testing.assert_array_equal(out[1][0], b.keys)
        np.testing.assert_array_equal(out[1][1], b.values)
        assert g.gathered_tokens == 4 * BT
        assert g.view_only_dispatches == 0
        assert not np.shares_memory(out[0][0], arena._k)

    def test_unchanged_batch_copies_nothing(self):
        arena = KVArena(8, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        g(0, [(0, a), (1, b)])
        first = g.gathered_tokens
        for layer in range(1, 4):
            out = g(layer, [(0, a), (1, b)])
        assert g.gathered_tokens == first  # the mirrors were current
        assert g.viewed_tokens == 3 * 4 * BT
        assert g.dispatches == 4 and g.view_only_dispatches == 3
        np.testing.assert_array_equal(out[1][1], b.values)

    def test_appended_token_copies_exactly_one_per_cache(self):
        arena = KVArena(16, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        g(0, [(0, a), (1, b)])
        before = g.stats()
        fill(a, 1, start=2 * BT, seed=5)
        fill(b, 1, start=2 * BT, seed=6)
        out = g(1, [(0, a), (1, b)])
        after = g.stats()
        assert after["gathered_tokens"] - before["gathered_tokens"] == 2
        assert after["viewed_tokens"] - before["viewed_tokens"] == 4 * BT
        for entry, cache in ((0, a), (1, b)):
            k_ref = np.empty((H, len(cache), D), dtype=np.float32)
            v_ref = np.empty_like(k_ref)
            arena.gather(cache.block_ids, len(cache), k_ref, v_ref)
            np.testing.assert_array_equal(out[entry][0], k_ref)
            np.testing.assert_array_equal(out[entry][1], v_ref)

    def test_truncate_recopies_from_the_truncation_point_only(self):
        arena = KVArena(16, H, BT, D)
        a, b = interleaved_pair(arena)
        contig = LayerKVCache(H, D)
        fill(contig, BT, seed=1)
        fill(contig, BT, start=BT, seed=3)  # what interleaved_pair fed a
        g = BatchedKVGather()
        g(0, [(0, a)])
        a.truncate(BT + 1)
        contig.truncate(BT + 1)
        fill(a, 2, start=BT + 1, seed=8)
        fill(contig, 2, start=BT + 1, seed=8)
        before = g.gathered_tokens
        (k, v) = g(1, [(0, a)])[0]
        assert g.gathered_tokens - before == 2  # not 2*BT, not BT + 3
        np.testing.assert_array_equal(k, contig.keys)
        np.testing.assert_array_equal(v, contig.values)

    def test_mixed_batch_routes_each_cache_correctly(self):
        arena = KVArena(8, H, BT, D)
        frag_a, frag_b = interleaved_pair(arena)
        clean = PagedLayerKVCache(arena)
        fill(clean, BT, seed=6)
        contig = LayerKVCache(H, D)
        fill(contig, 5, seed=7)
        g = BatchedKVGather()
        out = g(0, [(0, frag_a), (1, clean), (2, contig), (3, frag_b)])
        assert set(out) == {0, 1, 2, 3}
        for entry, cache in ((0, frag_a), (1, clean), (2, contig),
                             (3, frag_b)):
            np.testing.assert_array_equal(out[entry][0], cache.keys)
            np.testing.assert_array_equal(out[entry][1], cache.values)
        assert g.viewed_tokens == BT  # only the clean paged cache
        assert g.gathered_tokens == 4 * BT  # the two fragmented ones


class TestStats:
    def test_stats_snapshot_keys_and_counts(self):
        arena = KVArena(8, H, BT, D)
        a, b = interleaved_pair(arena)
        g = BatchedKVGather()
        g(0, [(0, a), (1, b)])
        g(1, [(0, a), (1, b)])
        s = g.stats()
        assert s == {
            "dispatches": 2,
            "view_only_dispatches": 1,
            "viewed_tokens": 4 * BT,
            "gathered_tokens": 4 * BT,
        }
