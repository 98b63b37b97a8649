"""Plan-provider zoo: the PlanProvider protocol and its implementations.

Every provider must emit a SparsePlan that the unchanged downstream
machinery (the plan executor, PlanCache, contracts) accepts; the
numerical equivalence against masked-dense oracles is fuzzed by the audit
``providers`` area -- these tests pin the provider-specific behaviour:
registry, memoised profiling, pattern classification, and config routing.
"""

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.attention import dense_attention
from repro.config import PLAN_PROVIDER_NAMES
from repro.core import (
    HEAD_PATTERNS,
    MInferenceProvider,
    PlanProvider,
    SampleAttentionProvider,
    SparsePlan,
    VerticalSlashProvider,
    make_provider,
    plan_sample_attention,
    plan_with_provider,
    sample_attention,
)
from repro.errors import ConfigError
from tests.core.test_sample_attention import structured_qkv

CFG = SampleAttentionConfig(alpha=0.9, r_row=0.1, r_window=0.05)


class TestRegistry:
    def test_every_configured_name_constructs(self):
        for name in PLAN_PROVIDER_NAMES:
            provider = make_provider(name)
            assert isinstance(provider, PlanProvider)
            assert provider.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_provider("flash_sparse")

    def test_config_validates_provider(self):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(provider="flash_sparse")


@pytest.mark.parametrize("name", PLAN_PROVIDER_NAMES)
class TestAllProviders:
    def test_plan_is_valid_and_stamped(self, rng, name):
        q, k, _ = structured_qkv(rng)
        plan = make_provider(name).plan(q, k, CFG)
        assert isinstance(plan, SparsePlan)
        assert plan.validate()
        assert plan.extras["provider"] == name
        assert plan.s_q == plan.s_k == 256

    def test_coverage_meets_alpha(self, rng, name):
        """Every head either meets the alpha contract on sampled column
        mass or is an a_shape head whose coverage lives in window+sinks
        (reported as the profiled band+sink share)."""
        q, k, _ = structured_qkv(rng)
        plan = make_provider(name).plan(q, k, CFG)
        patterns = plan.extras.get("head_patterns")
        for h, share in enumerate(plan.achieved_share):
            if patterns is not None and patterns[h] == "a_shape":
                assert share > 0.0
            else:
                assert share >= CFG.alpha - 1e-6 or share == 0.0

    def test_finds_planted_stripes(self, rng, name):
        q, k, _ = structured_qkv(rng, stripe_cols=(40, 200))
        plan = make_provider(name).plan(q, k, CFG.replace(alpha=0.5))
        for h in range(q.shape[0]):
            assert 40 in plan.kv_indices[h]
            assert 200 in plan.kv_indices[h]

    def test_executes_through_unchanged_kernels(self, rng, name):
        q, k, v = structured_qkv(rng)
        plan = make_provider(name).plan(q, k, CFG)
        out = sample_attention(q, k, v, CFG, plan=plan)
        dense = dense_attention(q, k, v).output
        # Genuinely sparse, and close to dense on average at alpha=0.9.
        # (Exact equivalence vs the plan's masked-dense oracle is fuzzed
        # by the audit ``providers`` area.)
        assert (
            out.kernel.computed_elements.sum()
            < out.kernel.total_causal_elements * q.shape[0]
        )
        assert np.isfinite(out.output).all()
        assert np.mean(np.abs(out.output - dense)) < 0.05


class TestSampleProvider:
    def test_matches_plan_sample_attention(self, rng):
        q, k, _ = structured_qkv(rng)
        via_provider = SampleAttentionProvider().plan(q, k, CFG)
        direct = plan_sample_attention(q, k, CFG)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(via_provider.kv_indices, direct.kv_indices)
        )
        assert np.array_equal(via_provider.sampled_rows, direct.sampled_rows)


class TestMInferenceProvider:
    def test_profile_memoised_across_calls(self, rng):
        q, k, _ = structured_qkv(rng)
        provider = MInferenceProvider()
        p1 = provider.plan(q, k, CFG)
        # A second serving-time call re-indexes under the *stored* profile:
        # same per-head pattern classes, no re-profiling.
        p2 = provider.plan(q, k, CFG)
        assert p1.extras["head_patterns"] == p2.extras["head_patterns"]
        assert len(provider._profiles) == 1

    def test_patterns_are_known_classes(self, rng):
        q, k, _ = structured_qkv(rng)
        plan = MInferenceProvider().plan(q, k, CFG)
        patterns = plan.extras["head_patterns"]
        assert len(patterns) == q.shape[0]
        assert set(patterns) <= set(HEAD_PATTERNS)

    def test_distinct_configs_profile_separately(self, rng):
        q, k, _ = structured_qkv(rng)
        provider = MInferenceProvider()
        provider.plan(q, k, CFG)
        provider.plan(q, k, CFG.replace(alpha=0.5))
        assert len(provider._profiles) == 2


class TestVerticalSlashProvider:
    def test_bands_recorded_in_extras(self, rng):
        """A planted diagonal band surfaces in extras["bands"] so the
        element-mask oracle (and future banded kernels) can see it."""
        h, s, d = 2, 192, 16
        q = rng.standard_normal((h, s, d)).astype(np.float32)
        k = np.zeros((h, s, d), dtype=np.float32)
        # Keys echo the query 64 steps back: a strong slash at distance 64,
        # well outside the local window (so band detection can claim it).
        k[:, : s - 64] = 4.0 * q[:, 64:]
        plan = VerticalSlashProvider().plan(q, k, CFG)
        bands = plan.extras.get("bands")
        assert bands, "planted diagonal not detected"
        assert any(lo <= 64 < hi for lo, hi in bands)

    def test_difference_cut_bounded(self, rng):
        q, k, _ = structured_qkv(rng)
        provider = VerticalSlashProvider(max_cut_ratio=0.25)
        # Tiny alpha: the difference cut alone covers it, so no top-up
        # inflates the selection past the cap.
        plan = provider.plan(q, k, CFG.replace(alpha=1e-6, min_keep=0))
        cap = int(np.ceil(0.25 * plan.s_k))
        assert all(ix.size <= cap for ix in plan.kv_indices)


class TestConfigRouting:
    def test_plan_with_provider_resolves_config(self, rng):
        q, k, _ = structured_qkv(rng)
        cfg = CFG.replace(provider="vertical_slash")
        plan = plan_with_provider(q, k, cfg)
        assert plan.extras["provider"] == "vertical_slash"

    def test_sample_attention_plans_via_config_provider(self, rng):
        q, k, v = structured_qkv(rng)
        cfg = CFG.replace(provider="minference")
        out = sample_attention(q, k, v, cfg)
        assert out.plan.extras["provider"] == "minference"

    def test_backend_uses_configured_provider(self, rng):
        from repro.backends import SampleAttentionBackend

        q, k, v = structured_qkv(rng)
        backend = SampleAttentionBackend(
            config=CFG.replace(provider="vertical_slash")
        )
        backend.prefill(q, k, v)
        stats = backend.last_stats()
        assert 0.0 < stats["density"] <= 1.0
