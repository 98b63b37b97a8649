"""Property-based tests for plan-level invariants and mask algebra."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import SampleAttentionConfig
from repro.attention import causal_block_mask, sink_block_mask, window_block_mask
from repro.attention.masks import normalise_bands, striped_element_counts
from repro.core import plan_sample_attention, sample_column_scores
from repro.serving import CORRUPTION_MODES, STRUCTURAL_CORRUPTIONS, corrupt_plan

SETTINGS = dict(max_examples=20, deadline=None)


def _qk(seed, h, s, d):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((h, s, d)).astype(np.float32)
    k = rng.standard_normal((h, s, d)).astype(np.float32)
    return q, k


class TestPlanInvariants:
    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(16, 160),
        alpha=st.floats(0.1, 0.99),
        r_row=st.floats(0.05, 0.5),
        r_window=st.floats(0.0, 0.3),
    )
    @settings(**SETTINGS)
    def test_plan_well_formed(self, seed, s, alpha, r_row, r_window):
        q, k = _qk(seed, 2, s, 8)
        cfg = SampleAttentionConfig(alpha=alpha, r_row=r_row, r_window=r_window)
        plan = plan_sample_attention(q, k, cfg)
        assert 1 <= plan.window <= max(int(np.ceil(r_window * s)), 1)
        assert 0.0 < plan.element_density() <= 1.0
        for idx in plan.kv_indices:
            assert idx.size >= 1
            assert np.all(np.diff(idx) > 0)
            assert idx.min() >= 0 and idx.max() < s
        assert np.all(plan.achieved_share >= min(alpha, 1.0) - 1e-6)

    @given(seed=st.integers(0, 10_000), s=st.integers(16, 120))
    @settings(**SETTINGS)
    def test_stripes_cover_alpha_of_sampled_mass(self, seed, s):
        """The defining stage-2 guarantee: the selected stripes cover at
        least alpha of the stage-1 sampled column mass, per head."""
        q, k = _qk(seed, 2, s, 8)
        cfg = SampleAttentionConfig(alpha=0.9, r_row=0.2)
        plan = plan_sample_attention(q, k, cfg)
        stats = sample_column_scores(q, k, plan.sampled_rows)
        for h, idx in enumerate(plan.kv_indices):
            total = stats.column_scores[h].sum()
            covered = stats.column_scores[h][idx].sum()
            assert covered >= 0.9 * total - 1e-5

    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(8, 100),
        window=st.integers(1, 50),
        sinks=st.integers(0, 6),
        dense_rows=st.integers(0, 12),
    )
    @settings(**SETTINGS)
    def test_element_counts_bounded_by_causal(self, seed, s, window, sinks, dense_rows):
        rng = np.random.default_rng(seed)
        idx = [np.sort(rng.choice(s, size=min(10, s), replace=False))]
        counts = striped_element_counts(
            s, s, window, idx, sink_tokens=sinks, dense_last_rows=dense_rows
        )
        causal_total = s * (s + 1) // 2
        assert 0 < counts[0] <= causal_total


class TestValidationUnderCorruption:
    """validate() must catch every structural corruption the adversary can
    inject, on fresh plans and on staleness-extended reuses alike."""

    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(16, 120),
        mode=st.sampled_from(STRUCTURAL_CORRUPTIONS),
    )
    @settings(**SETTINGS)
    def test_structural_corruption_always_caught(self, seed, s, mode):
        q, k = _qk(seed, 2, s, 8)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.9))
        assert plan.validate()
        rng = np.random.default_rng(seed)
        bad = corrupt_plan(plan, mode, rng)
        assert not bad.validate()
        assert not bad.validate(s_k=s)

    @given(seed=st.integers(0, 10_000), s=st.integers(16, 120))
    @settings(**SETTINGS)
    def test_semantic_corruption_stays_structurally_valid(self, seed, s):
        """share_undercut is the adversary the runtime CRA guard exists
        for: validate() must NOT catch it (it is structurally executable),
        and the reported coverage must genuinely undercut alpha."""
        q, k = _qk(seed, 2, s, 8)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.9))
        bad = corrupt_plan(plan, "share_undercut", np.random.default_rng(seed))
        assert bad.validate()
        assert float(np.min(bad.achieved_share)) < 0.9

    @given(
        seed=st.integers(0, 10_000),
        s=st.integers(16, 100),
        grow=st.integers(1, 64),
        mode=st.sampled_from(STRUCTURAL_CORRUPTIONS),
    )
    @settings(**SETTINGS)
    def test_extended_does_not_launder_corruption(self, seed, s, grow, mode):
        """Re-geometrying a corrupted plan for a later chunk must not make
        it validate (the cache extends before validating, so a corruption
        surviving extension would reach the kernel)."""
        q, k = _qk(seed, 2, s, 8)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.9))
        bad = corrupt_plan(plan, mode, np.random.default_rng(seed))
        try:
            ext = bad.extended(s_q=min(grow, 32), s_k=s + grow)
        except Exception:
            return  # refusing to extend a corrupted plan is also safe
        # extended() honestly recomputes the window (from config) and
        # kv_ratio (from the actual stripe indices), so corruptions of
        # those fields are *repaired*, not laundered; corruptions of the
        # fields it carries forward must still be caught.
        if mode not in ("window_zero", "window_overflow", "ratio_nan"):
            assert not ext.validate(s_k=s + grow)

    @given(seed=st.integers(0, 10_000), s=st.integers(16, 100),
           grow=st.integers(0, 64))
    @settings(**SETTINGS)
    def test_extended_honest_plan_stays_valid(self, seed, s, grow):
        q, k = _qk(seed, 2, s, 8)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.9))
        ext = plan.extended(s_q=max(grow, 1), s_k=s + grow)
        assert ext.validate(s_k=s + grow)

    def test_mode_taxonomy_is_partition(self):
        assert set(STRUCTURAL_CORRUPTIONS).isdisjoint({"share_undercut"})
        assert set(CORRUPTION_MODES) == set(STRUCTURAL_CORRUPTIONS) | {
            "share_undercut"
        }


class TestBandNormalisation:
    @given(
        window=st.integers(1, 64),
        bands=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 60)).map(
                lambda t: (t[0], t[0] + t[1])
            ),
            max_size=5,
        ),
    )
    @settings(**SETTINGS)
    def test_merged_bands_disjoint_sorted_cover_window(self, window, bands):
        merged = normalise_bands(window, bands)
        assert merged[0][0] == 0
        assert merged[0][1] >= window
        for (l1, h1), (l2, h2) in zip(merged, merged[1:]):
            assert h1 < l2  # strictly disjoint after merging
        # Every input band is covered by some merged interval.
        for lo, hi in bands:
            assert any(m_lo <= lo and hi <= m_hi for m_lo, m_hi in merged)


class TestMaskAlgebraProperties:
    @given(
        s=st.integers(32, 160),
        block=st.sampled_from([16, 32]),
        window=st.integers(1, 80),
        sinks=st.integers(0, 8),
    )
    @settings(**SETTINGS)
    def test_union_subset_of_causal(self, s, block, window, sinks):
        w = window_block_mask(1, s, s, block, window)
        snk = sink_block_mask(1, s, s, block, sinks)
        causal = causal_block_mask(1, s, s, block)
        union = w | snk
        assert not (union.blocks & ~causal.blocks).any()
        assert union.density() <= 1.0 + 1e-9

    @given(s=st.integers(32, 128), block=st.sampled_from([16, 64]))
    @settings(**SETTINGS)
    def test_union_idempotent_and_commutative(self, s, block):
        a = window_block_mask(1, s, s, block, 8)
        b = sink_block_mask(1, s, s, block, 4)
        np.testing.assert_array_equal((a | b).blocks, (b | a).blocks)
        np.testing.assert_array_equal((a | a).blocks, a.blocks)
        np.testing.assert_array_equal((a & a).blocks, a.blocks)
