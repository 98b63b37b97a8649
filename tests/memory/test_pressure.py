"""Tests for the memory-pressure ladder controller."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory import (
    MEMORY_PRESSURE_LEVELS,
    HeavyHitterPolicy,
    KVArena,
    MemoryPressureController,
    PagedLayerKVCache,
    PrefixSharingRegistry,
)

H, D, BT = 2, 8, 4


def make_controller(n_blocks=8, *, registry=True, **kw):
    arena = KVArena(n_blocks, H, BT, D)
    reg = PrefixSharingRegistry(arena) if registry else None
    kw.setdefault("min_keep_tokens", BT)
    ctl = MemoryPressureController(arena, reg, HeavyHitterPolicy(), **kw)
    return arena, reg, ctl


def fill(cache, n, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n, D)).astype(np.float32)
    v = rng.standard_normal((H, n, D)).astype(np.float32)
    cache.append(k, v, np.arange(n, dtype=np.int64))


class TestLadder:
    def test_levels_constant(self):
        assert MEMORY_PRESSURE_LEVELS == ("normal", "evict", "shed")

    def test_normal_when_blocks_already_free(self):
        arena, _, ctl = make_controller()
        assert ctl.relieve([], need_blocks=2) is True
        assert ctl.level == "normal" and ctl.peak_level == "normal"
        assert ctl.exhaustion_events == 1

    def test_registry_shrink_is_first_rung(self):
        arena, reg, ctl = make_controller(n_blocks=2)
        cache = PagedLayerKVCache(arena)
        fill(cache, 2 * BT)  # fills the arena
        reg.register(np.arange(2 * BT, dtype=np.int64), [cache])
        cache.release()  # only registry refs remain
        victim = PagedLayerKVCache(arena)
        assert ctl.relieve([[victim]], need_blocks=2) is True
        assert len(reg) == 0  # lossless rung dropped the entry
        assert ctl.registry_blocks_dropped == 2
        assert ctl.caches_evicted == 0  # never reached live eviction
        assert ctl.level == "normal"

    def test_live_eviction_largest_first(self):
        arena, _, ctl = make_controller(n_blocks=8)
        small = PagedLayerKVCache(arena)
        fill(small, 2 * BT, seed=1)
        big = PagedLayerKVCache(arena)
        fill(big, 6 * BT, seed=2)
        assert ctl.relieve([[small], [big]], need_blocks=2) is True
        # The bigger cache was evicted; the smaller one untouched.
        assert big.evictions == 1 and small.evictions == 0
        assert ctl.caches_evicted == 1
        assert ctl.peak_level == "evict"

    def test_min_keep_tokens_floor(self):
        arena, _, ctl = make_controller(
            n_blocks=4, min_keep_tokens=3 * BT
        )
        cache = PagedLayerKVCache(arena)
        fill(cache, 4 * BT)
        # Target = max(3*BT, 2*BT) = 3*BT -> frees only one block.
        assert ctl.relieve([[cache]], need_blocks=1) is True
        assert len(cache) == 3 * BT

    def test_shed_when_nothing_reclaimable(self):
        arena, _, ctl = make_controller(n_blocks=2, registry=False)
        pinned = PagedLayerKVCache(arena)
        fill(pinned, 2 * BT)
        # The only candidate is already at min_keep -> policy returns None.
        ctl.min_keep_tokens = 2 * BT
        assert ctl.relieve([[pinned]], need_blocks=1) is False
        assert ctl.level == "shed" and ctl.peak_level == "shed"
        assert ctl.shed_signals == 1

    def test_shared_victim_sheds_instead_of_crashing(self):
        # Every candidate block is CoW-shared, so eviction under a dry
        # arena cannot net-free blocks: evict() fails atomically and the
        # ladder must absorb it (skip the victim, walk to shed) rather
        # than let ArenaExhaustedError escape relieve() with a destroyed
        # cache behind it.
        arena, _, ctl = make_controller(n_blocks=4, registry=False)
        donor = PagedLayerKVCache(arena)
        fill(donor, 4 * BT)
        adopter = PagedLayerKVCache(arena)
        adopter.adopt_shared(list(donor.block_ids), donor.positions.copy())
        assert ctl.relieve([[adopter]], need_blocks=1) is False
        assert len(adopter) == 4 * BT and len(donor) == 4 * BT  # intact
        assert ctl.evictions_skipped == 1
        assert ctl.caches_evicted == 0
        assert ctl.level == "shed"

    def test_level_resets_after_successful_relief(self):
        arena, _, ctl = make_controller(n_blocks=4, registry=False)
        cache = PagedLayerKVCache(arena)
        fill(cache, 4 * BT)
        assert ctl.relieve([[cache]], need_blocks=1) is True
        assert ctl.level == "normal"
        assert ctl.peak_level == "evict"  # peak is monotone


class TestValidation:
    def test_rejects_bad_need_blocks(self):
        _, _, ctl = make_controller()
        with pytest.raises(ConfigError):
            ctl.relieve([], need_blocks=0)

    def test_rejects_bad_fraction(self):
        arena = KVArena(4, H, BT, D)
        with pytest.raises(ConfigError):
            MemoryPressureController(
                arena, None, HeavyHitterPolicy(), evict_to_fraction=1.0
            )

    def test_rejects_bad_min_keep(self):
        arena = KVArena(4, H, BT, D)
        with pytest.raises(ConfigError):
            MemoryPressureController(
                arena, None, HeavyHitterPolicy(), min_keep_tokens=0
            )


class TestStats:
    def test_snapshot(self):
        arena, _, ctl = make_controller(n_blocks=4, registry=False)
        cache = PagedLayerKVCache(arena)
        fill(cache, 4 * BT)
        ctl.relieve([[cache]], need_blocks=1)
        s = ctl.stats()
        assert s["exhaustion_events"] == 1
        assert s["caches_evicted"] == 1
        assert s["peak_level"] == "evict"
        assert s["level"] == "normal"
