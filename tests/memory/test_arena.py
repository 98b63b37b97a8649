"""Tests for the global paged KV arena."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ArenaExhaustedError, ConfigError
from repro.memory import KVArena


def make_arena(n_blocks=8, h=2, bt=4, d=8):
    return KVArena(n_blocks, h, bt, d)


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            KVArena(0, 2, 4, 8)
        with pytest.raises(ConfigError):
            KVArena(8, 0, 4, 8)
        with pytest.raises(ConfigError):
            KVArena(8, 2, 0, 8)
        with pytest.raises(ConfigError):
            KVArena(8, 2, 4, 0)

    def test_byte_accounting(self):
        arena = make_arena(n_blocks=8, h=2, bt=4, d=8)
        assert arena.bytes_per_block == 2 * 2 * 4 * 8 * 4
        assert arena.bytes_total == 8 * arena.bytes_per_block
        arena.alloc()
        assert arena.bytes_in_use == arena.bytes_per_block

    def test_construction_leaves_the_pages_untouched(self):
        # A 2 GiB arena (1 GiB each of K and V) costs resident memory only
        # as blocks are written: neither buffer may be filled at
        # construction.  Measured in a fresh interpreter, whose peak RSS
        # no earlier test has raised.
        code = (
            "import resource\n"
            "from repro.memory import KVArena\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "arena = KVArena(32768, 4, 16, 128)\n"
            "assert arena.bytes_total == 2 ** 31\n"
            "print((peak() - before) / 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert float(out.stdout) < 16.0  # MB


class TestAllocFree:
    def test_allocations_come_out_ascending(self):
        arena = make_arena()
        assert [arena.alloc() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion_raises(self):
        arena = make_arena(n_blocks=2)
        arena.alloc()
        arena.alloc()
        with pytest.raises(ArenaExhaustedError):
            arena.alloc()
        # The error is also a MemoryError, the stdlib category it models.
        assert issubclass(ArenaExhaustedError, MemoryError)

    def test_decref_frees_and_reuses(self):
        arena = make_arena(n_blocks=1)
        bid = arena.alloc()
        arena.decref(bid)
        assert arena.blocks_free == 1
        assert arena.alloc() == bid

    def test_refcount_lifecycle(self):
        arena = make_arena()
        bid = arena.alloc()
        arena.incref(bid)
        assert arena.refcount(bid) == 2
        assert arena.shared_blocks == 1
        arena.decref(bid)
        assert arena.blocks_free == arena.n_blocks - 1  # still held
        arena.decref(bid)
        assert arena.blocks_free == arena.n_blocks

    def test_incref_free_block_is_use_after_free(self):
        arena = make_arena()
        with pytest.raises(ConfigError):
            arena.incref(0)

    def test_decref_free_block_is_double_free(self):
        arena = make_arena()
        with pytest.raises(ConfigError):
            arena.decref(0)

    def test_peak_tracking(self):
        arena = make_arena()
        a, b = arena.alloc(), arena.alloc()
        arena.decref(a)
        arena.decref(b)
        assert arena.blocks_in_use == 0
        assert arena.peak_blocks_in_use == 2


class TestReservations:
    def test_reserve_withdraws_from_free_list(self):
        arena = make_arena(n_blocks=4)
        assert arena.reserve(3) == 3
        assert arena.blocks_reserved == 3
        assert arena.blocks_free == 1
        arena.alloc()
        with pytest.raises(ArenaExhaustedError):
            arena.alloc()

    def test_reserve_is_clamped_to_free(self):
        arena = make_arena(n_blocks=2)
        arena.alloc()
        assert arena.reserve(5) == 1

    def test_release_reserved_restores(self):
        arena = make_arena(n_blocks=4)
        arena.reserve(3)
        assert arena.release_reserved() == 3
        assert arena.blocks_free == 4
        assert arena.blocks_reserved == 0

    def test_reserve_rejects_negative(self):
        with pytest.raises(ConfigError):
            make_arena().reserve(-1)


class TestViews:
    def test_contiguous_run_is_zero_copy(self):
        arena = make_arena(bt=4)
        ids = [arena.alloc() for _ in range(3)]
        arena._k[:, ids[0], 0, :] = 7.0
        k, v = arena.view(ids, 10)
        assert k.shape == (2, 10, 8)
        assert k.base is not None  # a view, not a copy
        assert float(k[0, 0, 0]) == 7.0

    def test_non_contiguous_returns_none(self):
        arena = make_arena()
        ids = [arena.alloc() for _ in range(3)]
        assert arena.view([ids[0], ids[2]], 8) is None

    def test_empty_table_views_are_empty(self):
        arena = make_arena()
        k, v = arena.view([], 0)
        assert k.shape == (2, 0, 8) and v.shape == (2, 0, 8)

    def test_gather_matches_view(self):
        rng = np.random.default_rng(0)
        arena = make_arena(bt=4)
        ids = [arena.alloc() for _ in range(3)]
        arena._k[:, ids] = rng.standard_normal(arena._k[:, ids].shape)
        arena._v[:, ids] = rng.standard_normal(arena._v[:, ids].shape)
        k_view, v_view = arena.view(ids, 11)
        out_k = np.empty((2, 11, 8), dtype=np.float32)
        out_v = np.empty((2, 11, 8), dtype=np.float32)
        arena.gather(ids, 11, out_k, out_v)
        np.testing.assert_array_equal(out_k, k_view)
        np.testing.assert_array_equal(out_v, v_view)

    def test_gather_from_a_start_offset_copies_only_the_tail(self):
        rng = np.random.default_rng(1)
        arena = make_arena(bt=4)
        ids = [arena.alloc() for _ in range(3)]
        arena._k[:, ids] = rng.standard_normal(arena._k[:, ids].shape)
        arena._v[:, ids] = rng.standard_normal(arena._v[:, ids].shape)
        k_view, v_view = arena.view(ids, 11)
        for start in (0, 3, 4, 6, 11):  # mid-block, on a boundary, empty
            out_k = np.empty((2, 11 - start, 8), dtype=np.float32)
            out_v = np.empty((2, 11 - start, 8), dtype=np.float32)
            arena.gather(ids, 11, out_k, out_v, start=start)
            np.testing.assert_array_equal(out_k, k_view[:, start:])
            np.testing.assert_array_equal(out_v, v_view[:, start:])

    def test_gather_rejects_a_table_shorter_than_length(self):
        arena = make_arena(bt=4)
        ids = [arena.alloc() for _ in range(2)]
        out = np.empty((2, 9, 8), dtype=np.float32)
        with pytest.raises(ConfigError, match="cannot cover 9 tokens"):
            arena.gather(ids, 9, out, out.copy())

    def test_gather_rejects_misshapen_buffers_and_bad_start(self):
        arena = make_arena(bt=4)
        ids = [arena.alloc() for _ in range(2)]
        good = np.empty((2, 6, 8), dtype=np.float32)
        for out_k, out_v in (
            (np.empty((2, 5, 8), dtype=np.float32), good),
            (good, np.empty((2, 7, 8), dtype=np.float32)),
            (np.empty((1, 6, 8), dtype=np.float32), good),
        ):
            with pytest.raises(ConfigError, match="expected"):
                arena.gather(ids, 6, out_k, out_v)
        with pytest.raises(ConfigError, match="expected"):
            arena.gather(ids, 6, good, good.copy(), start=2)
        for start in (-1, 7):
            with pytest.raises(ConfigError, match="start"):
                arena.gather(ids, 6, good, good.copy(), start=start)


class TestStats:
    def test_snapshot_keys_and_counters(self):
        arena = make_arena()
        bid = arena.alloc()
        arena.decref(bid)
        s = arena.stats()
        assert s["allocs"] == 1 and s["frees"] == 1
        assert s["blocks_in_use"] == 0
        assert s["peak_blocks_in_use"] == 1
        assert 0.0 <= s["utilization"] <= 1.0
