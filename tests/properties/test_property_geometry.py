"""Property tests for adversarial geometries: ragged tails, chunked-prefill
offsets, mask-builder elementwise definitions, and tiny-sequence filtering.

Promoted from the ad-hoc probes used while fixing the ``window=0`` and
truncated-stride boundary bugs; these pin the fixed behaviour permanently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention import PackedItem, dense_attention, flash_attention
from repro.attention.masks import (
    num_blocks,
    stripe_block_mask,
    window_block_mask,
)
from repro.audit.oracles import (
    TOLERANCE,
    check_block_kernels,
    check_prefill_batch,
    hand_built_plan,
)
from repro.core import select_kv_indices
from tests.conftest import random_qkv

SETTINGS = dict(max_examples=25, deadline=None)


def _block_any(element_mask, s_q, s_k, block_size):
    """Reduce an elementwise (s_q, s_k) mask to tile granularity (any)."""
    nq = num_blocks(s_q, block_size)
    nk = num_blocks(s_k, block_size)
    padded = np.zeros((nq * block_size, nk * block_size), dtype=bool)
    padded[:s_q, :s_k] = element_mask
    return padded.reshape(nq, block_size, nk, block_size).any(axis=(1, 3))


class TestRaggedChunkedKernelEquivalence:
    """All five execution paths -- dense, flash, the two block-sparse
    kernels on the tile mask, the plan executor on the element mask --
    agree with their oracle on shapes with ragged tails (``S % block_size
    != 0``) and chunked-prefill offsets (``s_q < s_k``): the checks of
    ``repro.audit.oracles`` the audit's ``kernels`` and ``packed`` areas
    call too."""

    @given(
        seed=st.integers(0, 10_000),
        s_k=st.integers(1, 90),
        q_frac=st.floats(0.01, 1.0),
        h_kv=st.sampled_from([1, 2]),
        group=st.sampled_from([1, 2, 3]),
        d=st.sampled_from([4, 8]),
        block=st.sampled_from([8, 16, 32]),
        window=st.integers(1, 96),
        n_stripes=st.integers(0, 12),
    )
    @settings(**SETTINGS)
    def test_all_paths_agree(
        self, seed, s_k, q_frac, h_kv, group, d, block, window, n_stripes
    ):
        s_q = max(1, min(s_k, int(round(q_frac * s_k))))
        h = h_kv * group
        q, k, v = random_qkv(
            np.random.default_rng(seed), h=h, s=s_q, d=d, h_kv=h_kv, s_k=s_k
        )
        rng = np.random.default_rng(seed + 1)
        stripes = [
            np.sort(rng.choice(s_k, size=min(n_stripes, s_k), replace=False))
            for _ in range(h)
        ]
        mask = window_block_mask(h, s_q, s_k, block, min(window, s_k))
        mask = mask | stripe_block_mask(stripes, s_q, s_k, block)

        np.testing.assert_allclose(
            flash_attention(q, k, v),
            dense_attention(q, k, v).output,
            atol=TOLERANCE,
        )
        plan = hand_built_plan(
            stripes, s_q, s_k, window=min(window, s_k), block_size=block
        )
        for result in (
            check_block_kernels(q, k, v, mask),
            check_prefill_batch([PackedItem.from_plan(q, k, v, plan)], [plan]),
        ):
            assert result.passed, result.detail


class TestMaskBuilderDefinitions:
    """The tile grids equal a direct block-reduction of their elementwise
    definitions, including right-aligned chunked offsets and ragged tails."""

    @given(
        s_k=st.integers(1, 100),
        q_frac=st.floats(0.01, 1.0),
        block=st.sampled_from([1, 4, 8, 16, 32]),
        window=st.integers(1, 110),
    )
    @settings(**SETTINGS)
    def test_window_mask_matches_elementwise_band(
        self, s_k, q_frac, block, window
    ):
        s_q = max(1, min(s_k, int(round(q_frac * s_k))))
        window = min(window, s_k)
        mask = window_block_mask(1, s_q, s_k, block, window)
        offset = s_k - s_q
        rows = np.arange(s_q)[:, None] + offset  # absolute query positions
        cols = np.arange(s_k)[None, :]
        band = (cols <= rows) & (cols > rows - window)
        expected = _block_any(band, s_q, s_k, block)
        np.testing.assert_array_equal(mask.blocks[0], expected)
        # Coverage: every in-band element lies inside an active tile.
        assert not np.any(band & ~mask.to_dense()[0])

    @given(
        seed=st.integers(0, 10_000),
        s_k=st.integers(1, 100),
        q_frac=st.floats(0.01, 1.0),
        block=st.sampled_from([1, 4, 8, 16, 32]),
        h=st.integers(1, 3),
        n_idx=st.integers(0, 16),
    )
    @settings(**SETTINGS)
    def test_stripe_mask_matches_elementwise_stripes(
        self, seed, s_k, q_frac, block, h, n_idx
    ):
        s_q = max(1, min(s_k, int(round(q_frac * s_k))))
        rng = np.random.default_rng(seed)
        stripes = [
            np.sort(rng.choice(s_k, size=min(n_idx, s_k), replace=False))
            for _ in range(h)
        ]
        mask = stripe_block_mask(stripes, s_q, s_k, block)
        q_last = (
            np.minimum(
                (np.arange(num_blocks(s_q, block)) + 1) * block - 1, s_q - 1
            )
            + s_k
            - s_q
        )
        k_first = np.arange(num_blocks(s_k, block)) * block
        for hh in range(h):
            # Elementwise definition: the stripe columns, restricted to
            # causally reachable *tiles* (tiles compute whole).
            keep = np.zeros(s_k, dtype=bool)
            keep[np.asarray(stripes[hh], dtype=np.int64)] = True
            col_tiles = _block_any(
                np.broadcast_to(keep, (s_q, s_k)), s_q, s_k, block
            )
            expected = col_tiles & (k_first[None, :] <= q_last[:, None])
            np.testing.assert_array_equal(mask.blocks[hh], expected)


class TestTinySequenceFiltering:
    """``select_kv_indices`` honours ``achieved_share >= alpha`` in both
    selection modes down to one-token sequences."""

    @given(
        seed=st.integers(0, 10_000),
        s_k=st.sampled_from([1, 2, 3, 17]),
        h=st.integers(1, 4),
        alpha=st.sampled_from([0.05, 0.5, 0.95, 0.999, 1.0]),
        min_keep=st.integers(0, 4),
    )
    @settings(**SETTINGS)
    def test_quantized_meets_alpha_like_exact(
        self, seed, s_k, h, alpha, min_keep
    ):
        scores = np.random.default_rng(seed).random((h, s_k))
        exact = select_kv_indices(scores, alpha, min_keep=min_keep, mode="exact")
        quant = select_kv_indices(
            scores, alpha, min_keep=min_keep, mode="quantized"
        )
        for res in (exact, quant):
            for hh in range(h):
                idx = res.kv_indices[hh]
                assert 1 <= idx.size <= s_k
                assert np.all(np.diff(idx) > 0)
                assert 0 <= idx.min() and idx.max() < s_k
                assert res.achieved_share[hh] >= alpha - 1e-6
        # Quantized rounds the kept prefix *up* to a grid point: it never
        # keeps fewer columns than the exact minimal selection.
        for hh in range(h):
            assert quant.kv_indices[hh].size >= exact.kv_indices[hh].size
            assert set(exact.kv_indices[hh]) <= set(quant.kv_indices[hh])
