"""Tests for the per-layer KV cache."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.kv_cache import LayerKVCache


def fill(cache, n, h=2, d=4, start=0, rng=None):
    rng = rng or np.random.default_rng(0)
    k = rng.standard_normal((h, n, d)).astype(np.float32)
    v = rng.standard_normal((h, n, d)).astype(np.float32)
    cache.append(k, v, np.arange(start, start + n))
    return k, v


class TestAppend:
    def test_append_and_views(self):
        cache = LayerKVCache(2, 4, capacity=4)
        k, v = fill(cache, 3)
        assert len(cache) == 3
        np.testing.assert_array_equal(cache.keys, k)
        np.testing.assert_array_equal(cache.values, v)
        np.testing.assert_array_equal(cache.positions, [0, 1, 2])

    def test_growth_beyond_capacity(self):
        cache = LayerKVCache(1, 2, capacity=2)
        fill(cache, 5, h=1, d=2)
        fill(cache, 7, h=1, d=2, start=5)
        assert len(cache) == 12

    def test_positions_must_increase(self):
        cache = LayerKVCache(1, 2)
        fill(cache, 3, h=1, d=2)
        with pytest.raises(ModelError):
            fill(cache, 1, h=1, d=2, start=1)

    def test_rejects_inconsistent_shapes(self):
        cache = LayerKVCache(1, 2)
        k = np.zeros((1, 2, 2), dtype=np.float32)
        v = np.zeros((1, 3, 2), dtype=np.float32)
        with pytest.raises(ModelError):
            cache.append(k, v, np.arange(2))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ModelError):
            LayerKVCache(0, 4)


class TestTruncate:
    """Pins the validated edge-case contract of ``truncate``."""

    def test_truncate_to_zero_empties_cache(self):
        cache = LayerKVCache(2, 4)
        fill(cache, 5)
        cache.truncate(0)
        assert len(cache) == 0
        assert cache.keys.shape == (2, 0, 4)
        assert cache.positions.shape == (0,)

    def test_append_after_truncate_to_zero_at_any_position(self):
        # An emptied cache has no last position; appends may restart anywhere.
        cache = LayerKVCache(1, 2)
        fill(cache, 5, h=1, d=2)
        cache.truncate(0)
        fill(cache, 2, h=1, d=2, start=3)
        assert len(cache) == 2
        np.testing.assert_array_equal(cache.positions, [3, 4])

    def test_truncate_to_full_length_is_noop(self):
        cache = LayerKVCache(2, 4)
        k, v = fill(cache, 4)
        cache.truncate(4)
        assert len(cache) == 4
        np.testing.assert_array_equal(cache.keys, k)
        np.testing.assert_array_equal(cache.values, v)

    def test_truncate_rejects_negative(self):
        cache = LayerKVCache(1, 2)
        fill(cache, 3, h=1, d=2)
        with pytest.raises(ModelError):
            cache.truncate(-1)

    def test_truncate_rejects_past_length(self):
        cache = LayerKVCache(1, 2)
        fill(cache, 3, h=1, d=2)
        with pytest.raises(ModelError):
            cache.truncate(4)

    def test_truncate_on_empty_cache(self):
        cache = LayerKVCache(1, 2)
        cache.truncate(0)
        assert len(cache) == 0
        with pytest.raises(ModelError):
            cache.truncate(1)


class TestEviction:
    def test_evict_keeps_selected(self):
        cache = LayerKVCache(2, 4)
        k, v = fill(cache, 6)
        keep = [np.array([0, 2, 5]), np.array([1, 3, 4])]
        cache.evict(keep)
        assert len(cache) == 3
        np.testing.assert_array_equal(cache.keys[0], k[0, [0, 2, 5]])
        np.testing.assert_array_equal(cache.keys[1], k[1, [1, 3, 4]])

    def test_append_after_evict(self):
        cache = LayerKVCache(1, 2)
        fill(cache, 6, h=1, d=2)
        cache.evict([np.array([0, 5])])
        fill(cache, 2, h=1, d=2, start=6)
        assert len(cache) == 4

    def test_rejects_ragged_keep(self):
        cache = LayerKVCache(2, 4)
        fill(cache, 4)
        with pytest.raises(ModelError):
            cache.evict([np.array([0]), np.array([0, 1])])

    def test_rejects_wrong_head_count(self):
        cache = LayerKVCache(2, 4)
        fill(cache, 4)
        with pytest.raises(ModelError):
            cache.evict([np.array([0])])

    def test_rejects_oversized_keep(self):
        cache = LayerKVCache(1, 4)
        fill(cache, 2, h=1)
        with pytest.raises(ModelError):
            cache.evict([np.array([0, 1, 1])])
