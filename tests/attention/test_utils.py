"""Tests for the attention numerics helpers."""

import numpy as np
import pytest

from repro.attention.utils import (
    NEG_INF,
    causal_mask,
    expand_kv,
    masked_row_softmax,
    softmax,
    validate_qkv,
)
from repro.errors import ShapeError


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-6)

    def test_matches_naive(self, rng):
        x = rng.standard_normal(9)
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), expected, rtol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal(16)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_large_values_stable(self):
        x = np.array([1e4, 1e4 - 1.0], dtype=np.float32)
        s = softmax(x)
        assert np.all(np.isfinite(s))
        assert s[0] > s[1]

    def test_fully_masked_row_is_zero(self):
        x = np.full((2, 4), NEG_INF, dtype=np.float32)
        x[1, 0] = 0.0
        s = softmax(x)
        np.testing.assert_array_equal(s[0], 0.0)
        assert s[1, 0] == pytest.approx(1.0)

    def test_axis_argument(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0, rtol=1e-6)

    @pytest.mark.parametrize("dead_rows", ["none", "some", "all"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_unguarded_form(self, rng, dead_rows, dtype):
        """Skipping the dead-row passes when no row is dead, and dividing
        in place, changes no bit (it is the stage-1 sampler's softmax)."""

        def unguarded(x, axis=-1):
            m = np.max(x, axis=axis, keepdims=True)
            dead = m <= NEG_INF / 2
            e = np.exp(x - np.where(dead, 0.0, m))
            e = np.where(np.broadcast_to(dead, e.shape), 0.0, e)
            z = np.sum(e, axis=axis, keepdims=True)
            z = np.where(z == 0.0, 1.0, z)
            return e / z

        x = (rng.standard_normal((3, 6, 37)) * 4).astype(dtype)
        x[rng.random(x.shape) < 0.3] = NEG_INF  # partially masked rows
        if dead_rows == "some":
            x[1, 2] = NEG_INF
            x[2, 5] = NEG_INF
        elif dead_rows == "all":
            x[:] = NEG_INF
        before = x.copy()
        for axis in (-1, 1):
            got = softmax(x, axis=axis)
            np.testing.assert_array_equal(got, unguarded(x, axis=axis))
            assert got.dtype == dtype
        np.testing.assert_array_equal(x, before)  # input left alone


class TestCausalMask:
    def test_square_lower_triangular(self):
        m = causal_mask(4, 4)
        np.testing.assert_array_equal(m, np.tril(np.ones((4, 4), bool)))

    def test_right_aligned_decode(self):
        m = causal_mask(1, 5)
        np.testing.assert_array_equal(m, np.ones((1, 5), bool))

    def test_right_aligned_chunk(self):
        m = causal_mask(2, 4)
        # Row 0 is absolute position 2, row 1 is position 3.
        np.testing.assert_array_equal(
            m, np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        )

    def test_rejects_sq_gt_sk(self):
        with pytest.raises(ShapeError):
            causal_mask(5, 3)


class TestValidateQkv:
    def test_accepts_gqa(self, rng):
        q = rng.standard_normal((8, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        assert validate_qkv(q, k, k) == (8, 2, 10, 10, 4)

    def test_rejects_rank(self, rng):
        q = rng.standard_normal((10, 4))
        with pytest.raises(ShapeError):
            validate_qkv(q, q, q)

    def test_rejects_head_mismatch(self, rng):
        q = rng.standard_normal((3, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)

    def test_rejects_dim_mismatch(self, rng):
        q = rng.standard_normal((2, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)

    def test_rejects_kv_shape_mismatch(self, rng):
        q = rng.standard_normal((2, 10, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        v = rng.standard_normal((2, 9, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, v)

    def test_rejects_long_queries(self, rng):
        q = rng.standard_normal((2, 11, 4)).astype(np.float32)
        k = rng.standard_normal((2, 10, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            validate_qkv(q, k, k)


class TestExpandKv:
    def test_identity_for_one(self, rng):
        x = rng.standard_normal((3, 5, 2))
        assert expand_kv(x, 1) is x

    def test_grouped_layout(self, rng):
        x = rng.standard_normal((2, 5, 3))
        out = expand_kv(x, 3)
        assert out.shape == (6, 5, 3)
        # Consecutive query heads share a KV head (LLaMA repeat_kv layout).
        for g in range(2):
            for r in range(3):
                np.testing.assert_array_equal(out[g * 3 + r], x[g])


class TestMaskedRowSoftmax:
    def test_masked_entries_zero(self, rng):
        scores = rng.standard_normal((2, 4, 4)).astype(np.float32)
        mask = np.tril(np.ones((4, 4), bool))
        p = masked_row_softmax(scores, mask)
        assert np.all(p[:, 0, 1:] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)
