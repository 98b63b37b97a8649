"""Tests for chain-hash prefix sharing."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory import (
    KVArena,
    PagedLayerKVCache,
    PrefixSharingRegistry,
    prefix_block_keys,
)
from repro.memory import sharing

H, D, BT = 2, 8, 4


def make_registry(n_blocks=64):
    arena = KVArena(n_blocks, H, BT, D)
    return arena, PrefixSharingRegistry(arena)


def filled_caches(arena, tokens, n_layers=2, seed=0):
    """Per-layer paged caches prefilled for ``tokens`` (one kv per token)."""
    rng = np.random.default_rng(seed)
    caches = []
    n = tokens.size
    pos = np.arange(n, dtype=np.int64)
    for _ in range(n_layers):
        c = PagedLayerKVCache(arena)
        k = rng.standard_normal((H, n, D)).astype(np.float32)
        v = rng.standard_normal((H, n, D)).astype(np.float32)
        c.append(k, v, pos)
        caches.append(c)
    return caches


class TestChainKeys:
    def test_only_full_blocks_are_keyed(self):
        tokens = np.arange(BT + 2, dtype=np.int64)
        assert len(prefix_block_keys(tokens, BT)) == 1

    def test_chain_property(self):
        # Same first block, different second -> keys diverge at index 1.
        a = np.arange(2 * BT, dtype=np.int64)
        b = a.copy()
        b[-1] += 1
        ka, kb = prefix_block_keys(a, BT), prefix_block_keys(b, BT)
        assert ka[0] == kb[0] and ka[1] != kb[1]

    def test_chain_folds_in_history(self):
        # Equal block *contents* at index 1 but different block 0 -> the
        # chain key at index 1 still differs (keys identify full prefixes).
        a = np.concatenate([np.zeros(BT, dtype=np.int64), np.arange(BT)])
        b = np.concatenate([np.ones(BT, dtype=np.int64), np.arange(BT)])
        assert prefix_block_keys(a, BT)[1] != prefix_block_keys(b, BT)[1]

    def test_rejects_bad_block_tokens(self):
        with pytest.raises(ConfigError):
            prefix_block_keys(np.arange(8), 0)


class TestRegisterLookup:
    def test_roundtrip_longest_prefix(self):
        arena, reg = make_registry()
        tokens = np.arange(3 * BT, dtype=np.int64)
        caches = filled_caches(arena, tokens)
        assert reg.register(tokens, caches) == 3
        # A request sharing 2 blocks then diverging matches 2 blocks.
        probe = tokens.copy()
        probe[2 * BT] += 100
        got = reg.lookup(probe)
        assert got is not None
        blocks, pos = got
        assert [len(b) for b in blocks] == [2, 2]
        assert blocks[0] == list(caches[0].block_ids[:2])
        np.testing.assert_array_equal(pos, np.arange(2 * BT))
        assert reg.hits == 1 and reg.tokens_reused == 2 * BT

    def test_lookup_miss(self):
        arena, reg = make_registry()
        assert reg.lookup(np.arange(2 * BT, dtype=np.int64)) is None
        assert reg.misses == 1

    def test_max_blocks_caps_match(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        reg.register(tokens, filled_caches(arena, tokens))
        blocks, _ = reg.lookup(tokens, max_blocks=1)
        assert [len(b) for b in blocks] == [1, 1]

    def test_short_prefix_not_registered(self):
        arena, reg = make_registry()
        tokens = np.arange(BT - 1, dtype=np.int64)
        assert reg.register(tokens, filled_caches(arena, tokens)) == 0

    def test_duplicate_registration_is_noop(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        caches = filled_caches(arena, tokens)
        assert reg.register(tokens, caches) == 2
        assert reg.register(tokens, caches) == 0
        assert reg.registrations == 1

    def test_register_skips_evicted_donor(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        caches = filled_caches(arena, tokens)
        caches[0].truncate(BT)  # donor layer shorter than the prefix
        assert reg.register(tokens, caches) == 0


class TestLifetime:
    def test_prefix_outlives_donor(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        caches = filled_caches(arena, tokens)
        donor_k = caches[0].keys.copy()
        reg.register(tokens, caches)
        for c in caches:
            c.release()
        # Registry refs keep the blocks resident.
        assert arena.blocks_in_use == 4
        blocks, pos = reg.lookup(tokens)
        sibling = PagedLayerKVCache(arena)
        sibling.adopt_shared(blocks[0], pos.copy())
        np.testing.assert_array_equal(sibling.keys, donor_k)

    def test_blocks_held_accounting(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        reg.register(tokens, filled_caches(arena, tokens, n_layers=3))
        assert reg.blocks_held == 6


class TestShrink:
    def test_lru_eviction_on_capacity(self, monkeypatch):
        monkeypatch.setattr(sharing, "MAX_ENTRIES", 2)
        arena, reg = make_registry()
        tok = [
            np.arange(BT, dtype=np.int64) + 100 * i for i in range(3)
        ]
        for t in tok:
            reg.register(t, filled_caches(arena, t, seed=int(t[0])))
        assert len(reg) == 2
        assert reg.lookup(tok[0]) is None  # oldest dropped
        assert reg.lookup(tok[2]) is not None

    def test_lookup_refreshes_lru_stamp(self, monkeypatch):
        monkeypatch.setattr(sharing, "MAX_ENTRIES", 2)
        arena, reg = make_registry()
        tok = [
            np.arange(BT, dtype=np.int64) + 100 * i for i in range(3)
        ]
        reg.register(tok[0], filled_caches(arena, tok[0], seed=0))
        reg.register(tok[1], filled_caches(arena, tok[1], seed=1))
        reg.lookup(tok[0])  # touch entry 0 so entry 1 becomes LRU
        reg.register(tok[2], filled_caches(arena, tok[2], seed=2))
        assert reg.lookup(tok[0]) is not None
        assert reg.lookup(tok[1]) is None

    def test_shrink_releases_refs(self):
        arena, reg = make_registry()
        tokens = np.arange(2 * BT, dtype=np.int64)
        caches = filled_caches(arena, tokens)
        reg.register(tokens, caches)
        for c in caches:
            c.release()
        assert reg.shrink(1) == 4
        assert arena.blocks_in_use == 0
        assert reg.shrink(1) == 0  # empty registry: nothing to drop

    def test_clear_releases_everything(self):
        arena, reg = make_registry()
        for i in range(3):
            t = np.arange(BT, dtype=np.int64) + 100 * i
            caches = filled_caches(arena, t, seed=i)
            reg.register(t, caches)
            for c in caches:
                c.release()
        assert reg.clear() == 6
        assert arena.blocks_in_use == 0 and len(reg) == 0

    def test_drop_restores_overlapping_sub_prefix_keys(self):
        # Entries A and B share their first block but diverge after, so
        # B's (newer) registration overwrites the shared first-block key.
        # Dropping B must re-point that key at the still-registered A,
        # not orphan it -- otherwise requests sharing only the common
        # first block lose sharing even though A still holds the refs.
        arena, reg = make_registry()
        common = np.arange(BT, dtype=np.int64)
        a = np.concatenate([common, 100 + np.arange(BT, dtype=np.int64)])
        b = np.concatenate([common, 200 + np.arange(BT, dtype=np.int64)])
        reg.register(a, filled_caches(arena, a, seed=0))
        reg.register(b, filled_caches(arena, b, seed=1))
        reg.lookup(a)  # A stays reachable via its own full key: B is LRU
        assert reg.shrink(1) == 4  # drops B (2 blocks x 2 layers)
        # A fresh request sharing only the common first block must still
        # match it through the surviving entry A.
        probe = np.concatenate(
            [common, 300 + np.arange(BT, dtype=np.int64)]
        )
        found = reg.lookup(probe)
        assert found is not None
        blocks, positions = found
        assert len(blocks[0]) == 1 and positions.size == BT


class TestStats:
    def test_snapshot(self):
        arena, reg = make_registry()
        tokens = np.arange(BT, dtype=np.int64)
        reg.register(tokens, filled_caches(arena, tokens))
        reg.lookup(tokens)
        reg.lookup(np.arange(BT, dtype=np.int64) + 999)
        s = reg.stats()
        assert s["entries"] == 1 and s["registrations"] == 1
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["tokens_reused"] == BT
