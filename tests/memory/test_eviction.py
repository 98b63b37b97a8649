"""Live eviction of paged KV caches: H2O keep sets ranked by the
attention mass a paged cache accumulates, applied through ``evict``."""

import numpy as np

from repro.baselines.h2o import H2OPolicy
from repro.memory import KVArena, PagedLayerKVCache

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
        keep = H2OPolicy(budget=4).select(cache.attention_mass())
        for ix in keep:
            assert len(ix) == 4
            assert 2 in ix and 5 in ix  # heavy hitters survive
            assert 15 in ix  # recency window keeps the newest key

    def test_evict_leaves_a_cache_within_budget_alone(self):
        arena, cache = filled_cache(8)
        for budget in (8, 12):
            H2OPolicy(budget=budget).evict([cache])
            assert len(cache) == 8 and cache.evictions == 0
        assert arena.blocks_in_use == 2

    def test_selection_feeds_evict(self):
        arena, cache = filled_cache(4 * BT)
        cache.record_attention(
            np.random.default_rng(1).random((H, 1, 4 * BT))
        )
        H2OPolicy(budget=BT).evict([cache])
        assert len(cache) == BT
        assert arena.blocks_in_use == 1
