"""KV eviction is the H2O baseline's alone.

Memory pressure never drops a live request's KV (docs/MEMORY.md,
*Decided: no live eviction*): a paged cache has no ``evict`` and no attention
statistic.  What evicts is ``H2OPolicy`` over contiguous caches, ranked
by the attention mass its caller accumulates beside them and compacted
with the same keep sets.
"""

import numpy as np

from repro.baselines.h2o import H2OPolicy, accumulate_attention
from repro.memory import KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H, D = 2, 8


def filled_cache(n_tokens, seed=0):
    cache = LayerKVCache(H, D)
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n_tokens, D)).astype(np.float32)
    v = rng.standard_normal((H, n_tokens, D)).astype(np.float32)
    cache.append(k, v, np.arange(n_tokens, dtype=np.int64))
    return cache, k


def test_paged_cache_holds_no_statistic_and_cannot_evict():
    cache = PagedLayerKVCache(KVArena(4, H, 4, D))
    for name in ("evict", "attention_mass", "record_attention", "evictions"):
        assert not hasattr(cache, name)


class TestHeavyHitter:
    def test_keeps_heaviest_keys(self):
        acc = np.zeros((H, 16))
        # Concentrate attention mass on positions 2 and 5 for every head.
        probs = np.zeros((H, 1, 16))
        probs[:, 0, 2] = 10.0
        probs[:, 0, 5] = 8.0
        accumulate_attention(acc, probs, 16)
        for ix in H2OPolicy(budget=4).select(acc):
            assert len(ix) == 4
            assert 2 in ix and 5 in ix  # heavy hitters survive
            assert 15 in ix  # recency window keeps the newest key

    def test_evict_leaves_a_cache_within_budget_alone(self):
        cache, k = filled_cache(8)
        mass = [np.random.default_rng(1).random((H, 8))]
        before = mass[0].copy()
        for budget in (8, 12):
            H2OPolicy(budget=budget).evict([cache], mass)
            assert len(cache) == 8
        np.testing.assert_array_equal(cache.keys, k)
        np.testing.assert_array_equal(mass[0], before)

    def test_selection_feeds_evict(self):
        cache, k = filled_cache(16)
        acc = np.zeros((H, 20))
        acc[:, :16] = np.random.default_rng(1).random((H, 16))
        before = acc.copy()
        policy = H2OPolicy(budget=4)
        keep = policy.select(acc[:, :16])
        policy.evict([cache], [acc])
        assert len(cache) == 4
        for h, ix in enumerate(keep):
            np.testing.assert_array_equal(cache.keys[h], k[h, ix])
            # The mass is compacted with the cache's keep set...
            np.testing.assert_array_equal(acc[h, :4], before[h, ix])
        # ...and zeroed past the new length, ready for the next keys.
        assert not acc[:, 4:].any()
