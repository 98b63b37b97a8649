"""Tests for paged-KV live-eviction policies."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory import HeavyHitterPolicy, KVArena, PagedLayerKVCache

H, D, BT = 2, 8, 4


def filled_cache(n_tokens, seed=0):
    arena = KVArena(32, H, BT, D)
    cache = PagedLayerKVCache(arena)
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n_tokens, D)).astype(np.float32)
    v = rng.standard_normal((H, n_tokens, D)).astype(np.float32)
    cache.append(k, v, np.arange(n_tokens, dtype=np.int64))
    return arena, cache


class TestHeavyHitter:
    def test_keeps_heaviest_keys(self):
        _, cache = filled_cache(16)
        # Concentrate attention mass on positions 2 and 5 for every head.
        probs = np.zeros((H, 1, 16))
        probs[:, 0, 2] = 10.0
        probs[:, 0, 5] = 8.0
        cache.record_attention(probs)
        cache.commit_attention()
        keep = HeavyHitterPolicy().select(cache, 4)
        assert keep is not None
        for ix in keep:
            assert len(ix) == 4
            assert 2 in ix and 5 in ix  # heavy hitters survive
            assert 15 in ix  # recency window keeps the newest key

    def test_none_when_at_or_below_target(self):
        _, cache = filled_cache(8)
        assert HeavyHitterPolicy().select(cache, 8) is None
        assert HeavyHitterPolicy().select(cache, 12) is None

    def test_rejects_bad_target(self):
        _, cache = filled_cache(8)
        with pytest.raises(ConfigError):
            HeavyHitterPolicy().select(cache, 0)

    def test_selection_feeds_evict(self):
        arena, cache = filled_cache(4 * BT)
        cache.record_attention(
            np.random.default_rng(1).random((H, 1, 4 * BT))
        )
        cache.commit_attention()
        keep = HeavyHitterPolicy().select(cache, BT)
        cache.evict(keep)
        assert len(cache) == BT
        assert arena.blocks_in_use == 1
