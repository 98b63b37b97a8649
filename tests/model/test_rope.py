"""Tests for rotary positional embedding."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.model.rope import (
    apply_rope,
    rope_cos_sin,
    rope_frequencies,
)


class TestFrequencies:
    def test_descending_geometric(self):
        f = rope_frequencies(8, base=10000.0)
        assert f[0] == 1.0
        assert np.all(np.diff(f) < 0)
        np.testing.assert_allclose(f[1] / f[0], f[2] / f[1], rtol=1e-9)

    def test_scale_divides(self):
        a = rope_frequencies(8, base=10000.0)
        b = rope_frequencies(8, base=10000.0, scale=4.0)
        np.testing.assert_allclose(b, a / 4.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            rope_frequencies(7)
        with pytest.raises(ConfigError):
            rope_frequencies(8, base=1.0)
        with pytest.raises(ConfigError):
            rope_frequencies(8, scale=0.0)


class TestApplyRope:
    def test_position_zero_identity(self, rng):
        x = rng.standard_normal((2, 1, 16)).astype(np.float32)
        cos, sin = rope_cos_sin(np.array([0]), 8)
        np.testing.assert_allclose(apply_rope(x, cos, sin), x, atol=1e-7)

    def test_norm_preserved(self, rng):
        x = rng.standard_normal((2, 5, 16)).astype(np.float32)
        cos, sin = rope_cos_sin(np.arange(5), 16)
        y = apply_rope(x, cos, sin)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-5
        )

    def test_partial_rotation_leaves_tail(self, rng):
        x = rng.standard_normal((1, 4, 16)).astype(np.float32)
        cos, sin = rope_cos_sin(np.arange(4), 8)
        y = apply_rope(x, cos, sin)
        np.testing.assert_array_equal(y[..., 8:], x[..., 8:])
        assert not np.allclose(y[..., :8], x[..., :8])

    def test_relative_property(self, rng):
        """<R(i) q, R(j) k> depends only on j - i."""
        q = rng.standard_normal((1, 1, 8)).astype(np.float64)
        k = rng.standard_normal((1, 1, 8)).astype(np.float64)
        def score(i, j):
            cq, sq = rope_cos_sin(np.array([i]), 8)
            ck, sk = rope_cos_sin(np.array([j]), 8)
            return float(
                (apply_rope(q, cq, sq)[0, 0] * apply_rope(k, ck, sk)[0, 0]).sum()
            )
        assert score(3, 7) == pytest.approx(score(103, 107), abs=1e-4)
        assert score(10, 2) == pytest.approx(score(60, 52), abs=1e-4)

    def test_rejects_mismatched_tables(self, rng):
        x = rng.standard_normal((1, 4, 16)).astype(np.float32)
        cos, sin = rope_cos_sin(np.arange(5), 8)
        with pytest.raises(ShapeError):
            apply_rope(x, cos, sin)

    def test_rejects_rotary_wider_than_head(self, rng):
        x = rng.standard_normal((1, 4, 6)).astype(np.float32)
        cos, sin = rope_cos_sin(np.arange(4), 8)
        with pytest.raises(ShapeError):
            apply_rope(x, cos, sin)
