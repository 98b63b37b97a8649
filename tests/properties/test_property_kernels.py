"""Property-based tests (hypothesis) for kernels and core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention import PackedItem, dense_attention, flash_attention
from repro.attention.utils import causal_mask, softmax
from repro.audit.oracles import (
    check_prefill_batch,
    hand_built_plan,
    plan_element_mask,
)
from repro.core import (
    sample_column_scores,
    sampled_row_indices,
    select_kv_indices,
)
from tests.conftest import random_qkv

SETTINGS = dict(max_examples=25, deadline=None)


def _qkv(seed, h, s, d, scale=1.0):
    q, k, v = random_qkv(np.random.default_rng(seed), h=h, s=s, d=d)
    return q * np.float32(scale), k * np.float32(scale), v


def _assert_prefill_contract(q, k, v, plan):
    item = PackedItem.from_plan(q, k, v, plan)
    result = check_prefill_batch([item], [plan])
    assert result.passed, result.detail


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
        plan = hand_built_plan(
            idx, s, s, window=window, sink_tokens=sinks, block_size=32
        )
        _assert_prefill_contract(q, k, v, plan)

    @given(seed=st.integers(0, 10_000), s=st.integers(2, 64))
    @settings(**SETTINGS)
    def test_row_coverage_counts_bounded(self, seed, s):
        # Every column a stripe: the kernel counts exactly the causal plane.
        q, k, v = _qkv(seed, 1, s, 4)
        plan = hand_built_plan([np.arange(s)], s, s, window=1)
        _assert_prefill_contract(q, k, v, plan)
        assert (plan_element_mask(plan)[0] == causal_mask(s, s)).all()


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
