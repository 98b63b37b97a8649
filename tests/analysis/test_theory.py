"""Numerical verification of the paper's Section 3 theory.

* **Theorem 1** (near-lossless sparse attention): if ``||P~ - P||_1 <=
  eps / R`` with ``||V||_1 <= R`` then ``||O~ - O||_1 <= eps``.
* **Lemma 1**: ``CRA(M) >= 1 - eps / R`` for such a mask, i.e.
  ``||P~ - P||_1 = 1 - CRA(M)`` row-wise.
* **Theorem 2**: the structured (window ∪ stripe) mask family inherits the
  bound -- verified by driving the actual plan executor.

The L1 norms are interpreted row-wise (max over query rows), matching the
proof's row-stochastic usage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import cra, stripe_mask_from_indices
from repro.attention import PackedItem, attention_probs, dense_attention
from repro.audit.oracles import (
    TOLERANCE,
    check_prefill_batch,
    hand_built_plan,
)
from repro.core import sample_attention
from tests.conftest import random_qkv


def masked_outputs(probs, v, mask):
    """O and O~ from explicit probability matrices (no renormalisation:
    the theorem's sparse attention is P~ = M * P)."""
    o = probs @ v
    o_sparse = (probs * mask) @ v
    return o, o_sparse


class TestTheorem1:
    @given(seed=st.integers(0, 10_000), s=st.integers(4, 48))
    @settings(max_examples=20, deadline=None)
    def test_output_error_bounded_by_score_error_times_r(self, seed, s):
        rng = np.random.default_rng(seed)
        q, k, v = random_qkv(rng, h=1, s=s, d=8)
        probs = attention_probs(q, k)[0]
        mask = rng.random((s, s)) < 0.7
        np.fill_diagonal(mask, True)

        o, o_sparse = masked_outputs(probs, v[0], mask)
        # Row-wise L1 quantities.
        p_err = np.abs(probs * ~mask).sum(axis=1).max()
        r = np.abs(v[0]).sum(axis=1).max()
        o_err = np.abs(o - o_sparse).sum(axis=1).max()
        assert o_err <= p_err * r + 1e-5

    def test_all_ones_mask_is_lossless(self, rng):
        q, k, v = random_qkv(rng, h=1, s=16, d=4)
        probs = attention_probs(q, k)[0]
        o, o_sparse = masked_outputs(probs, v[0], np.ones((16, 16), bool))
        np.testing.assert_allclose(o, o_sparse, atol=1e-7)


class TestLemma1:
    @given(seed=st.integers(0, 10_000), s=st.integers(4, 40))
    @settings(max_examples=20, deadline=None)
    def test_score_error_equals_one_minus_cra(self, seed, s):
        rng = np.random.default_rng(seed)
        q, k, _ = random_qkv(rng, h=1, s=s, d=8)
        probs = attention_probs(q, k)
        mask = rng.random((s, s)) < 0.5
        np.fill_diagonal(mask, True)
        p_err = np.abs(probs[0] * ~mask).sum(axis=1).max()
        assert p_err == pytest.approx(1.0 - cra(probs, mask)[0], abs=1e-6)


class TestTheorem2:
    def test_structured_mask_inherits_bound(self, rng):
        """The window+stripe family: output error of the *kernel* (which
        renormalises) is controlled by the retained mass.  With CRA >=
        alpha, renormalised error <= 2 * (1 - alpha) * max|V| row-wise."""
        s = 128
        q, k, v = random_qkv(rng, h=2, s=s, d=8)
        probs = attention_probs(q, k)
        window = 24
        idx = [np.arange(0, s, 7), np.arange(0, s, 5)]
        plan = hand_built_plan(idx, s, s, window=window)
        res = sample_attention(q, k, v, plan.config, plan=plan)
        ref = dense_attention(q, k, v).output
        for h in range(2):
            mask = stripe_mask_from_indices(s, s, idx[h], window=window)
            alpha = float(cra(probs[h], mask)[0])
            v_max = float(np.abs(v[h]).max())
            err = float(np.abs(res.output[h] - ref[h]).max())
            assert err <= 2.0 * (1.0 - alpha) * v_max + 1e-4

    def test_full_window_structured_mask_exact(self, rng):
        s = 64
        q, k, v = random_qkv(rng, h=1, s=s, d=8)
        # A window as wide as the prefix: the element oracle is dense causal.
        plan = hand_built_plan([[]], s, s, window=s)
        item = PackedItem.from_plan(q, k, v, plan)
        result = check_prefill_batch([item], [plan])
        assert result.passed, result.detail
        # ...and that oracle is dense attention, not the mask builder's word.
        res = sample_attention(q, k, v, plan.config, plan=plan)
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(res.output, ref, atol=TOLERANCE)
