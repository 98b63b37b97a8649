"""Tests for block-mask construction and algebra."""

import numpy as np
import pytest

from repro.attention import (
    BlockMask,
    causal_block_mask,
    global_block_mask,
    num_blocks,
    random_block_mask,
    sink_block_mask,
    stripe_block_mask,
    window_block_mask,
)
from repro.attention.masks import plan_block_mask
from repro.attention.utils import causal_mask
from repro.errors import MaskError, ShapeError


class TestNumBlocks:
    def test_exact_division(self):
        assert num_blocks(128, 32) == 4

    def test_ceiling(self):
        assert num_blocks(129, 32) == 5

    def test_zero_length(self):
        assert num_blocks(0, 32) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ShapeError):
            num_blocks(-1, 32)
        with pytest.raises(ShapeError):
            num_blocks(8, 0)


class TestBlockMaskValidation:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(MaskError):
            BlockMask(np.ones((1, 2, 2), dtype=np.int8), 32, 64, 64)

    def test_rejects_wrong_grid(self):
        with pytest.raises(MaskError):
            BlockMask(np.ones((1, 3, 2), dtype=bool), 32, 64, 64)


class TestCausalBlockMask:
    def test_covers_exactly_causal_reachability(self):
        m = causal_block_mask(1, 100, 100, 32)
        dense = m.to_dense()[0]
        causal = causal_mask(100, 100)
        # Block mask covers at least the causal region, and only blocks
        # touching it.
        assert np.all(dense[causal])
        assert not dense[0, 99]

    def test_density_is_one_relative_to_causal(self):
        m = causal_block_mask(3, 200, 200, 64)
        assert m.density() == pytest.approx(1.0)

    def test_right_aligned(self):
        m = causal_block_mask(1, 32, 96, 32)
        # Query block 0 holds positions 64..95 -> sees all 3 key blocks.
        assert m.blocks[0, 0].all()


class TestWindowBlockMask:
    def test_window_covers_band(self):
        m = window_block_mask(1, 128, 128, 32, window=40)
        dense = m.to_dense()[0]
        rows = np.arange(128)[:, None]
        cols = np.arange(128)[None, :]
        band = (cols <= rows) & (cols > rows - 40)
        assert np.all(dense[band])

    def test_window_excludes_far_past(self):
        m = window_block_mask(1, 256, 256, 32, window=32)
        dense = m.to_dense()[0]
        assert not dense[255, 0]

    def test_rejects_zero_window(self):
        # Regression: window=0 used to silently behave as window=1 via a
        # max(window - 1, 0) clamp, contradicting the docstring band
        # [p-w+1, p] and the SparsePlan.validate invariant window >= 1.
        with pytest.raises(MaskError):
            window_block_mask(1, 64, 64, 32, window=0)

    def test_window_one_is_exactly_diagonal_band(self):
        m = window_block_mask(1, 64, 64, 32, window=1)
        dense = m.to_dense()[0]
        rows = np.arange(64)[:, None]
        cols = np.arange(64)[None, :]
        band = (cols <= rows) & (cols > rows - 1)
        assert np.all(dense[band])
        # Tile granularity: only diagonal tiles are active.
        assert m.blocks[0, 0, 0] and m.blocks[0, 1, 1]
        assert not m.blocks[0, 1, 0]

    def test_rejects_negative(self):
        with pytest.raises(MaskError):
            window_block_mask(1, 64, 64, 32, window=-1)


class TestStripeBlockMask:
    def test_stripe_column_active_below_diagonal(self):
        idx = [np.array([70])]
        m = stripe_block_mask(idx, 128, 128, 32)
        dense = m.to_dense()[0]
        assert dense[127, 70]
        assert not dense[0, 70]  # causally unreachable

    def test_per_head_independence(self):
        m = stripe_block_mask([np.array([0]), np.array([96])], 128, 128, 32)
        assert m.blocks[0, :, 0].any() and not m.blocks[0, :, 3].any()
        assert m.blocks[1, 3, 3] and not m.blocks[1, 0, 0]

    def test_empty_indices(self):
        m = stripe_block_mask([np.array([], dtype=np.int64)], 64, 64, 32)
        assert not m.blocks.any()

    def test_rejects_out_of_range(self):
        with pytest.raises(MaskError):
            stripe_block_mask([np.array([64])], 64, 64, 32)

    def test_accepts_single_head_array(self):
        m = stripe_block_mask(np.array([3, 5]), 64, 64, 32)
        assert m.blocks.shape[0] == 1


class TestSinkAndGlobal:
    def test_sink_is_first_block_column(self):
        m = sink_block_mask(2, 128, 128, 32, sink_tokens=4)
        assert m.blocks[:, :, 0].all()
        assert not m.blocks[:, :, 1:].any()

    def test_zero_sink_empty(self):
        m = sink_block_mask(1, 64, 64, 32, sink_tokens=0)
        assert not m.blocks.any()

    def test_global_matches_sink(self):
        a = global_block_mask(1, 128, 128, 32, 8)
        b = sink_block_mask(1, 128, 128, 32, 8)
        np.testing.assert_array_equal(a.blocks, b.blocks)


class TestRandomBlockMask:
    def test_ratio_approximate(self):
        rng = np.random.default_rng(0)
        m = random_block_mask(4, 2048, 2048, 64, ratio=0.25, rng=rng)
        causal = causal_block_mask(4, 2048, 2048, 64)
        achieved = m.blocks.sum() / causal.blocks.sum()
        assert 0.2 < achieved < 0.3

    def test_deterministic_given_rng(self):
        m1 = random_block_mask(1, 256, 256, 32, 0.5, np.random.default_rng(7))
        m2 = random_block_mask(1, 256, 256, 32, 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(m1.blocks, m2.blocks)

    def test_subset_of_causal(self):
        m = random_block_mask(1, 256, 256, 32, 0.9, np.random.default_rng(1))
        causal = causal_block_mask(1, 256, 256, 32)
        assert not (m.blocks & ~causal.blocks).any()

    def test_rejects_bad_ratio(self):
        with pytest.raises(MaskError):
            random_block_mask(1, 64, 64, 32, 1.5, np.random.default_rng(0))


class TestDenseRows:
    def test_last_rows_full_causal(self):
        # The plan's "bottom area" over a one-token window, no stripes.
        no_stripes = [np.empty(0, dtype=np.int64)]
        m = plan_block_mask(128, 128, 32, 1, no_stripes, dense_last_rows=10)
        bare = plan_block_mask(128, 128, 32, 1, no_stripes)
        # Last block row sees every causally reachable key block; the
        # rows above it keep the window's diagonal tiles only.
        assert m.blocks[0, 3].all() and not bare.blocks[0, 3, :3].any()
        assert np.array_equal(m.blocks[0, :3], bare.blocks[0, :3])
        assert not m.blocks[0, 0, 1:].any()


class TestAlgebra:
    def test_union_and_intersection(self):
        a = sink_block_mask(1, 128, 128, 32, 4)
        b = window_block_mask(1, 128, 128, 32, 16)
        u = a | b
        i = a & b
        assert u.blocks.sum() >= max(a.blocks.sum(), b.blocks.sum())
        assert i.blocks.sum() <= min(a.blocks.sum(), b.blocks.sum())

    def test_incompatible_geometry_rejected(self):
        a = sink_block_mask(1, 128, 128, 32, 4)
        b = sink_block_mask(1, 128, 128, 64, 4)
        with pytest.raises(MaskError):
            _ = a | b

    def test_validate_causal_rows_raises_on_empty(self):
        m = sink_block_mask(1, 128, 128, 32, 0)
        with pytest.raises(MaskError):
            m.validate_causal_rows()

    def test_validate_causal_rows_passes_causal(self):
        causal_block_mask(1, 128, 128, 32).validate_causal_rows()
