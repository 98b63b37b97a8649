"""Tests for the paged per-layer KV cache (block table over the arena)."""

import numpy as np
import pytest

from repro.errors import ArenaExhaustedError, ModelError
from repro.memory import KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H, D, BT = 2, 8, 4


def make_pair(n_blocks=16):
    arena = KVArena(n_blocks, H, BT, D)
    return arena, PagedLayerKVCache(arena)


def fill(cache, n, *, start=0, rng=None):
    rng = rng or np.random.default_rng(0)
    k = rng.standard_normal((H, n, D)).astype(np.float32)
    v = rng.standard_normal((H, n, D)).astype(np.float32)
    pos = np.arange(start, start + n, dtype=np.int64)
    cache.append(k, v, pos)
    return k, v, pos


class TestAppendAndViews:
    def test_matches_contiguous_cache_bitwise(self):
        rng = np.random.default_rng(1)
        arena, paged = make_pair()
        contig = LayerKVCache(H, D)
        t = 0
        for n in (3, 5, 1, 7):  # deliberately misaligned chunk sizes
            k = rng.standard_normal((H, n, D)).astype(np.float32)
            v = rng.standard_normal((H, n, D)).astype(np.float32)
            pos = np.arange(t, t + n, dtype=np.int64)
            paged.append(k, v, pos)
            contig.append(k, v, pos)
            t += n
        np.testing.assert_array_equal(paged.keys, contig.keys)
        np.testing.assert_array_equal(paged.values, contig.values)
        np.testing.assert_array_equal(paged.positions, contig.positions)

    def test_fresh_table_views_are_zero_copy(self):
        arena, paged = make_pair()
        fill(paged, 10)
        assert paged.keys.base is not None

    def test_rejects_inconsistent_shapes(self):
        arena, paged = make_pair()
        k = np.zeros((H, 3, D), dtype=np.float32)
        v = np.zeros((H, 2, D), dtype=np.float32)
        with pytest.raises(ModelError):
            paged.append(k, v, np.arange(3, dtype=np.int64))

    def test_rejects_non_increasing_positions(self):
        arena, paged = make_pair()
        fill(paged, 4)
        k = np.zeros((H, 1, D), dtype=np.float32)
        with pytest.raises(ModelError):
            paged.append(k, k, np.array([3], dtype=np.int64))

    def test_append_is_atomic_on_exhaustion(self):
        arena, paged = make_pair(n_blocks=2)
        k0, v0, _ = fill(paged, BT)  # one block, full
        k = np.zeros((H, 2 * BT, D), dtype=np.float32)  # needs 2 more
        pos = np.arange(BT, 3 * BT, dtype=np.int64)
        with pytest.raises(ArenaExhaustedError):
            paged.append(k, k, pos)
        # Rolled back: same length, same contents, no leaked blocks.
        assert len(paged) == BT
        np.testing.assert_array_equal(paged.keys, k0)
        assert arena.blocks_in_use == 1


class TestTruncateContract:
    """Mirror of the contiguous cache's pinned truncate edge cases."""

    def test_truncate_to_zero_frees_all_blocks(self):
        arena, paged = make_pair()
        fill(paged, 10)
        paged.truncate(0)
        assert len(paged) == 0
        assert arena.blocks_in_use == 0
        fill(paged, 2, start=5)  # append may restart at any position
        np.testing.assert_array_equal(paged.positions, [5, 6])

    def test_truncate_to_full_length_is_noop(self):
        arena, paged = make_pair()
        k, v, _ = fill(paged, 7)
        paged.truncate(7)
        np.testing.assert_array_equal(paged.keys, k)

    def test_truncate_frees_only_whole_blocks_past_tail(self):
        arena, paged = make_pair()
        fill(paged, 3 * BT)
        paged.truncate(BT + 1)  # keep 1 full + 1 partial block
        assert arena.blocks_in_use == 2

    def test_truncate_rejects_out_of_range(self):
        arena, paged = make_pair()
        fill(paged, 4)
        with pytest.raises(ModelError):
            paged.truncate(-1)
        with pytest.raises(ModelError):
            paged.truncate(5)


class TestSharingAndCoW:
    def _donor_with_shared_block(self, arena):
        donor = PagedLayerKVCache(arena)
        k, v, pos = fill(donor, 2 * BT)
        return donor, k, v, pos

    def _adopt(self, arena, donor, n_blocks):
        sibling = PagedLayerKVCache(arena)
        ids = list(donor.block_ids[:n_blocks])
        sibling.adopt_shared(ids, donor.positions[: n_blocks * BT].copy())
        return sibling

    def test_adopt_requires_empty_cache(self):
        arena, paged = make_pair()
        fill(paged, 1)
        with pytest.raises(ModelError, match="must be empty"):
            paged.adopt_shared([0], np.arange(BT, dtype=np.int64))

    def test_adopt_validates_position_count(self):
        arena, _ = make_pair()
        donor, *_ = self._donor_with_shared_block(arena)
        sibling = PagedLayerKVCache(arena)
        with pytest.raises(ModelError, match="positions"):
            sibling.adopt_shared(list(donor.block_ids), np.arange(3))

    def test_adopted_prefix_is_bitwise_shared(self):
        arena, _ = make_pair()
        donor, k, v, pos = self._donor_with_shared_block(arena)
        sibling = self._adopt(arena, donor, 2)
        assert sibling.shared_tokens == 2 * BT
        assert sibling.shared_block_count == 2
        np.testing.assert_array_equal(sibling.keys, donor.keys)
        assert arena.blocks_in_use == 2  # no copies yet

    def test_append_after_adoption_forks_nothing(self):
        # Appending past the shared region writes into a *new* block.
        arena, _ = make_pair()
        donor, k, *_ = self._donor_with_shared_block(arena)
        sibling = self._adopt(arena, donor, 2)
        fill(sibling, 3, start=2 * BT, rng=np.random.default_rng(9))
        assert arena.forks == 0
        np.testing.assert_array_equal(donor.keys, k)

    def test_misaligned_write_into_shared_block_forks(self):
        arena, _ = make_pair()
        donor, k, *_ = self._donor_with_shared_block(arena)
        sibling = self._adopt(arena, donor, 2)
        sibling.truncate(BT + 1)  # tail lands mid-way through block 1
        tail = np.random.default_rng(3)
        new_k, *_ = fill(sibling, 2, start=BT + 1, rng=tail)
        assert arena.forks == 1
        # Donor unchanged, sibling diverged only past the truncation point.
        np.testing.assert_array_equal(donor.keys, k)
        np.testing.assert_array_equal(sibling.keys[:, : BT + 1], k[:, : BT + 1])
        np.testing.assert_array_equal(sibling.keys[:, BT + 1 :], new_k)

    def test_boundary_truncate_drops_shared_block_without_fork(self):
        arena, _ = make_pair()
        donor, *_ = self._donor_with_shared_block(arena)
        sibling = self._adopt(arena, donor, 2)
        sibling.truncate(BT)  # block boundary: just decref block 1
        fill(sibling, 1, start=BT, rng=np.random.default_rng(4))
        assert arena.forks == 0
        assert arena.blocks_in_use == 3  # donor's 2 + sibling's new tail

    def test_release_returns_all_references(self):
        arena, _ = make_pair()
        donor, *_ = self._donor_with_shared_block(arena)
        sibling = self._adopt(arena, donor, 2)
        sibling.release()
        donor.release()
        assert arena.blocks_in_use == 0


class TestMirror:
    """Reads of a fragmented table go through the incremental mirror."""

    @staticmethod
    def _fragmented(arena, capacity=0):
        """A cache whose two blocks are separated by a neighbour's, plus
        the contiguous oracle fed the same tokens."""
        cache = PagedLayerKVCache(arena, capacity)
        oracle = LayerKVCache(H, D)
        rng = np.random.default_rng(11)
        oracle.append(*fill(cache, BT, rng=rng))
        fill(PagedLayerKVCache(arena), 1)  # takes the adjacent block
        oracle.append(*fill(cache, BT, start=BT, rng=rng))
        assert arena.view(list(cache.block_ids), len(cache)) is None
        return cache, oracle

    def test_kv_pair_is_keys_and_values(self):
        arena, _ = make_pair()
        cache, oracle = self._fragmented(arena)
        keys, values = cache.kv()
        np.testing.assert_array_equal(keys, oracle.keys)
        np.testing.assert_array_equal(values, oracle.values)
        np.testing.assert_array_equal(cache.keys, keys)
        np.testing.assert_array_equal(cache.values, values)
        assert not np.shares_memory(keys, arena._k)

    def test_one_run_table_reads_the_arena_and_owns_no_mirror(self):
        arena, paged = make_pair()
        fill(paged, 2 * BT + 1)
        keys, values = paged.kv()
        assert np.shares_memory(keys, arena._k)
        assert np.shares_memory(values, arena._v)
        assert paged.mirror_nbytes == 0 and paged.copied_tokens == 0

    def test_reads_copy_only_tokens_past_the_watermark(self):
        arena, _ = make_pair()
        cache, oracle = self._fragmented(arena)
        cache.kv()
        assert cache.copied_tokens == 2 * BT
        cache.kv()
        _ = cache.keys, cache.values
        assert cache.copied_tokens == 2 * BT  # nothing new to copy
        oracle.append(*fill(cache, 3, start=2 * BT))
        np.testing.assert_array_equal(cache.keys, oracle.keys)
        assert cache.copied_tokens == 2 * BT + 3

    def test_adopted_prefix_is_copied_once(self):
        arena, _ = make_pair()
        donor, oracle = self._fragmented(arena)
        sibling = PagedLayerKVCache(arena)
        sibling.adopt_shared(list(donor.block_ids), donor.positions.copy())
        for _ in range(3):
            np.testing.assert_array_equal(sibling.keys, oracle.keys)
        assert sibling.copied_tokens == 2 * BT

    def test_cow_fork_invalidates_nothing(self):
        arena, _ = make_pair()
        donor, oracle = self._fragmented(arena)
        sibling = PagedLayerKVCache(arena)
        sibling.adopt_shared(list(donor.block_ids), donor.positions.copy())
        sibling.kv()  # mirror warm over the shared prefix
        sibling.truncate(BT + 1)
        oracle.truncate(BT + 1)
        oracle.append(*fill(sibling, 2, start=BT + 1))
        assert arena.forks == 1
        np.testing.assert_array_equal(sibling.keys, oracle.keys)
        np.testing.assert_array_equal(sibling.values, oracle.values)
        assert sibling.copied_tokens == 2 * BT + 2

    def test_capacity_sizes_the_mirror_once(self):
        arena, _ = make_pair(n_blocks=32)
        cache, oracle = self._fragmented(arena, capacity=40)
        cache.kv()
        sized = cache.mirror_nbytes
        assert sized == 2 * H * 40 * D * 4
        oracle.append(*fill(cache, 30, start=2 * BT))
        np.testing.assert_array_equal(cache.keys, oracle.keys)
        assert cache.mirror_nbytes == sized

    def test_mirror_grows_geometrically_and_keeps_its_prefix(self):
        arena, _ = make_pair(n_blocks=32)
        cache, oracle = self._fragmented(arena)
        cache.kv()
        assert cache.mirror_nbytes == 2 * H * 2 * BT * D * 4
        oracle.append(*fill(cache, 1, start=2 * BT))
        np.testing.assert_array_equal(cache.keys, oracle.keys)
        np.testing.assert_array_equal(cache.values, oracle.values)
        assert cache.mirror_nbytes == 2 * H * 4 * BT * D * 4
        assert cache.copied_tokens == 2 * BT + 1  # prefix came from the mirror

    def test_release_drops_the_mirror(self):
        arena, _ = make_pair()
        cache, _ = self._fragmented(arena)
        cache.kv()
        assert cache.mirror_nbytes > 0
        cache.release()
        assert cache.mirror_nbytes == 0 and len(cache.keys[0]) == 0
        assert cache.n_blocks == 0
