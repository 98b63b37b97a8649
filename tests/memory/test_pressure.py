"""Tests for the memory-pressure ladder controller: registry shrink, then
shed -- never a live request's KV."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory import (
    MEMORY_PRESSURE_LEVELS,
    KVArena,
    MemoryPressureController,
    PagedLayerKVCache,
    PrefixSharingRegistry,
)

H, D, BT = 2, 8, 4


def make_controller(n_blocks=8, *, registry=True):
    arena = KVArena(n_blocks, H, BT, D)
    reg = PrefixSharingRegistry(arena) if registry else None
    return arena, reg, MemoryPressureController(arena, reg)


def fill(cache, n, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((H, n, D)).astype(np.float32)
    v = rng.standard_normal((H, n, D)).astype(np.float32)
    cache.append(k, v, np.arange(n, dtype=np.int64))


def registered_only(arena, reg, n_tokens):
    """Fill ``n_tokens`` of the arena with a prefix only the registry
    holds (its donor released)."""
    donor = PagedLayerKVCache(arena)
    fill(donor, n_tokens)
    reg.register(np.arange(n_tokens, dtype=np.int64), [donor])
    donor.release()


class TestLadder:
    def test_levels_constant(self):
        assert MEMORY_PRESSURE_LEVELS == ("normal", "evict", "shed")

    def test_normal_when_blocks_already_free(self):
        arena, _, ctl = make_controller()
        assert ctl.relieve(need_blocks=2) is True
        assert ctl.level == "normal" and ctl.peak_level == "normal"
        assert ctl.exhaustion_events == 1

    def test_registry_shrink_is_first_rung(self):
        arena, reg, ctl = make_controller(n_blocks=2)
        registered_only(arena, reg, 2 * BT)  # fills the arena
        assert ctl.relieve(need_blocks=2) is True
        assert len(reg) == 0  # lossless rung dropped the entry
        assert ctl.registry_blocks_dropped == 2
        assert ctl.level == "normal"

    def test_shed_when_nothing_reclaimable(self):
        arena, reg, ctl = make_controller(n_blocks=4)
        live = PagedLayerKVCache(arena)
        fill(live, 2 * BT)
        registered_only(arena, reg, 2 * BT)
        k, v = live.kv()
        k, v = k.copy(), v.copy()
        # The registry gives back its two blocks, the live cache none.
        assert ctl.relieve(need_blocks=3) is False
        assert ctl.registry_blocks_dropped == 2 and len(reg) == 0
        assert ctl.level == "shed" and ctl.peak_level == "shed"
        assert ctl.shed_signals == 1
        assert len(live) == 2 * BT and live.n_blocks == 2  # untouched
        np.testing.assert_array_equal(live.keys, k)
        np.testing.assert_array_equal(live.values, v)

    def test_shared_victim_sheds_instead_of_crashing(self):
        # Every block in use is CoW-shared by two live caches and no
        # registry holds anything: nothing is reclaimable, so the ladder
        # walks to shed and both caches are left exactly as they were.
        arena, _, ctl = make_controller(n_blocks=4, registry=False)
        donor = PagedLayerKVCache(arena)
        fill(donor, 4 * BT)
        adopter = PagedLayerKVCache(arena)
        adopter.adopt_shared(list(donor.block_ids), donor.positions.copy())
        assert ctl.relieve(need_blocks=1) is False
        assert len(adopter) == 4 * BT and len(donor) == 4 * BT  # intact
        assert adopter.block_ids == donor.block_ids
        np.testing.assert_array_equal(adopter.keys, donor.keys)
        assert ctl.level == "shed"

    def test_level_resets_after_successful_relief(self):
        arena, reg, ctl = make_controller(n_blocks=4)
        registered_only(arena, reg, 4 * BT)
        assert ctl.relieve(need_blocks=1) is True
        assert ctl.level == "normal"
        assert ctl.peak_level == "evict"  # peak is monotone


class TestValidation:
    def test_rejects_bad_need_blocks(self):
        _, _, ctl = make_controller()
        with pytest.raises(ConfigError):
            ctl.relieve(need_blocks=0)


class TestStats:
    def test_snapshot(self):
        arena, reg, ctl = make_controller(n_blocks=4)
        registered_only(arena, reg, 4 * BT)
        ctl.relieve(need_blocks=1)
        assert ctl.stats() == {
            "level": "normal",
            "peak_level": "evict",
            "exhaustion_events": 1,
            "registry_blocks_dropped": 4,
            "shed_signals": 0,
        }
