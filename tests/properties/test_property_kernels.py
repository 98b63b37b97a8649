"""Property-based tests (hypothesis) for kernels and core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention import dense_attention, flash_attention
from repro.attention.utils import causal_mask, softmax
from repro.core import (
    sample_column_scores,
    sampled_row_indices,
    select_kv_indices,
)
from tests.conftest import execute_striped

SETTINGS = dict(max_examples=25, deadline=None)


def _qkv(seed, h, s, d, scale=1.0):
    rng = np.random.default_rng(seed)
    q = (rng.standard_normal((h, s, d)) * scale).astype(np.float32)
    k = (rng.standard_normal((h, s, d)) * scale).astype(np.float32)
    v = rng.standard_normal((h, s, d)).astype(np.float32)
    return q, k, v


class TestSoftmaxProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 50),
        shift=st.floats(-50, 50),
    )
    @settings(**SETTINGS)
    def test_normalised_and_shift_invariant(self, seed, n, shift):
        x = np.random.default_rng(seed).standard_normal(n)
        s = softmax(x)
        assert abs(s.sum() - 1.0) < 1e-5
        np.testing.assert_allclose(s, softmax(x + shift), atol=1e-5)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    @settings(**SETTINGS)
    def test_order_preserving(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        s = softmax(x)
        assert np.argmax(s) == np.argmax(x)


class TestFlashEqualsDense:
    @given(
        seed=st.integers(0, 10_000),
        h=st.integers(1, 4),
        s=st.integers(1, 96),
        d=st.sampled_from([4, 8, 16]),
        scale=st.sampled_from([0.3, 1.0, 4.0]),
    )
    @settings(**SETTINGS)
    def test_equivalence(self, seed, h, s, d, scale):
        q, k, v = _qkv(seed, h, s, d, scale)
        ref = dense_attention(q, k, v).output
        out = flash_attention(q, k, v)
        np.testing.assert_allclose(out, ref, atol=5e-4)


class TestStripedEqualsDenseMasked:
    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(4, 80),
        window=st.integers(1, 90),
        n_idx=st.integers(0, 20),
        sinks=st.integers(0, 4),
    )
    @settings(**SETTINGS)
    def test_equivalence(self, seed, s, window, n_idx, sinks):
        rng = np.random.default_rng(seed)
        q, k, v = _qkv(seed, 2, s, 8)
        idx = [
            np.sort(rng.choice(s, size=min(n_idx, s), replace=False))
            for _ in range(2)
        ]
        res = execute_striped(q, k, v, window, idx, sink_tokens=sinks, block=32)
        rows = np.arange(s)[:, None]
        cols = np.arange(s)[None, :]
        band = (cols <= rows) & (cols > rows - window)
        masks = []
        for ix in idx:
            stripe_cols = np.union1d(ix, np.arange(min(sinks, s)))
            stripe = np.zeros((s, s), bool)
            if stripe_cols.size:
                stripe[:, stripe_cols.astype(np.int64)] = True
            masks.append(band | (stripe & (cols <= rows - window)))
        ref = dense_attention(q, k, v, mask=np.stack(masks)).output
        np.testing.assert_allclose(res.output, ref, atol=5e-4)

    @given(seed=st.integers(0, 10_000), s=st.integers(2, 64))
    @settings(**SETTINGS)
    def test_row_coverage_counts_bounded(self, seed, s):
        q, k, v = _qkv(seed, 1, s, 4)
        res = execute_striped(q, k, v, 1, [np.arange(s)])
        causal_total = int(causal_mask(s, s).sum())
        assert res.computed_elements[0] == causal_total


class TestSamplingProperties:
    @given(
        s=st.integers(1, 500),
        ratio=st.floats(0.01, 1.0),
        from_end=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_row_indices_valid(self, s, ratio, from_end):
        idx = sampled_row_indices(s, ratio, from_end=from_end)
        assert 1 <= idx.size <= s
        assert idx.min() >= 0 and idx.max() < s
        assert np.all(np.diff(idx) > 0)

    @given(seed=st.integers(0, 10_000), s=st.integers(2, 60))
    @settings(**SETTINGS)
    def test_column_scores_conserve_row_mass(self, seed, s):
        q, k, _ = _qkv(seed, 2, s, 8)
        rows = sampled_row_indices(s, 0.5)
        stats = sample_column_scores(q, k, rows)
        np.testing.assert_allclose(
            stats.column_scores.sum(axis=1), float(rows.size), rtol=1e-4
        )
        assert np.all(stats.column_scores >= 0)


class TestFilteringProperties:
    @given(
        seed=st.integers(0, 10_000),
        s_k=st.integers(1, 200),
        alpha=st.floats(0.05, 1.0),
        mode=st.sampled_from(["exact", "quantized"]),
    )
    @settings(**SETTINGS)
    def test_selection_invariants(self, seed, s_k, alpha, mode):
        scores = np.random.default_rng(seed).random((3, s_k))
        res = select_kv_indices(scores, alpha, mode=mode)
        for h, idx in enumerate(res.kv_indices):
            assert 1 <= idx.size <= s_k
            assert np.all(np.diff(idx) > 0)
            # Achieved share meets alpha (up to numerical slack).
            assert res.achieved_share[h] >= min(alpha, 1.0) - 1e-6
            # The selection is a *top* set: the smallest kept score is at
            # least as large as the largest dropped score.
            kept = np.zeros(s_k, bool)
            kept[idx] = True
            if (~kept).any() and kept.any():
                assert scores[h][kept].min() >= scores[h][~kept].max() - 1e-12
