"""End-to-end tests of the SampleAttention pipeline (Algorithm 1)."""

import dataclasses

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.attention import (
    KernelWorkspace,
    PackedItem,
    dense_attention,
    fast_block_sparse_attention,
    packed_block_sparse_attention,
)
from repro.core import plan_sample_attention, sample_attention
from repro.errors import MaskError
from tests.conftest import random_qkv


def structured_qkv(rng, h=2, s=256, d=16, stripe_cols=(30, 170)):
    """QKV whose attention has planted column stripes: every query carries a
    shared direction that the stripe keys (and only they) align with."""
    shared = rng.standard_normal(d).astype(np.float32)
    shared /= np.linalg.norm(shared)
    q = rng.standard_normal((h, s, d)).astype(np.float32) + 3.0 * shared
    k = rng.standard_normal((h, s, d)).astype(np.float32) * 0.3
    for c in stripe_cols:
        k[:, c] = 5.0 * shared
    v = rng.standard_normal((h, s, d)).astype(np.float32)
    return q, k, v


class TestPlan:
    def test_plan_fields(self, rng):
        q, k, _ = structured_qkv(rng)
        cfg = SampleAttentionConfig(alpha=0.9, r_row=0.1, r_window=0.05)
        plan = plan_sample_attention(q, k, cfg)
        assert plan.s_q == plan.s_k == 256
        assert plan.window == int(np.ceil(0.05 * 256))
        assert plan.n_heads == 2
        assert plan.sampled_rows.size == int(np.ceil(0.1 * 256))
        assert np.all(plan.achieved_share >= 0.9 - 1e-9)

    def test_plan_finds_planted_stripes(self, rng):
        q, k, _ = structured_qkv(rng, stripe_cols=(40, 200))
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.5))
        for h in range(2):
            assert 40 in plan.kv_indices[h]
            assert 200 in plan.kv_indices[h]

    def test_alpha_monotone_kept_ratio(self, rng):
        q, k, _ = structured_qkv(rng)
        prev = 0.0
        for alpha in (0.5, 0.8, 0.95, 0.99):
            plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=alpha))
            assert plan.mean_kv_ratio >= prev - 1e-12
            prev = plan.mean_kv_ratio

    def test_element_density_bounds(self, rng):
        q, k, _ = structured_qkv(rng)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(alpha=0.8))
        assert 0.0 < plan.element_density() <= 1.0

    def test_summary_keys(self, rng):
        q, k, _ = structured_qkv(rng)
        summ = plan_sample_attention(q, k).summary()
        for key in ("window", "element_density", "mean_kv_ratio", "alpha"):
            assert key in summ

    def test_to_block_mask_geometry(self, rng):
        q, k, _ = structured_qkv(rng)
        plan = plan_sample_attention(q, k, SampleAttentionConfig(block_size=32))
        mask = plan.to_block_mask()
        assert mask.blocks.shape == (2, 8, 8)
        mask.validate_causal_rows()


class TestExecution:
    def test_output_near_dense_on_structured_input(self, rng):
        q, k, v = structured_qkv(rng)
        ref = dense_attention(q, k, v).output
        res = sample_attention(q, k, v, SampleAttentionConfig(alpha=0.98))
        err = np.abs(res.output - ref).max()
        assert err < 0.15  # near-lossless: the dropped tail carries <2% mass

    def test_higher_alpha_lower_error(self, rng):
        q, k, v = structured_qkv(rng)
        ref = dense_attention(q, k, v).output
        errs = []
        for alpha in (0.5, 0.9, 0.99):
            res = sample_attention(q, k, v, SampleAttentionConfig(alpha=alpha))
            errs.append(float(np.abs(res.output - ref).mean()))
        assert errs[0] >= errs[1] >= errs[2]

    def test_alpha_one_with_full_sampling_exact(self, rng):
        q, k, v = random_qkv(rng, h=2, s=96, d=8)
        cfg = SampleAttentionConfig(alpha=1.0, r_row=1.0, r_window=0.05)
        res = sample_attention(q, k, v, cfg)
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(res.output, ref, atol=2e-4)

    def test_striped_and_block_execution_agree_on_plan_coverage(self, rng):
        # The plan executor and tile-granular execution of the same plan's
        # block mask: the tiles cover a superset, so both must be close to
        # dense when the plan is near-complete.
        q, k, v = structured_qkv(rng)
        cfg = SampleAttentionConfig(alpha=0.99, block_size=32)
        plan = plan_sample_attention(q, k, cfg)
        a = sample_attention(q, k, v, cfg, plan=plan)
        b = fast_block_sparse_attention(q, k, v, plan.to_block_mask())
        assert np.abs(a.output - b.output).max() < 0.2

    def test_block_execution_covers_more_elements(self, rng):
        q, k, v = structured_qkv(rng)
        cfg = SampleAttentionConfig(alpha=0.8, block_size=64)
        plan = plan_sample_attention(q, k, cfg)
        a = sample_attention(q, k, v, cfg, plan=plan)
        b = fast_block_sparse_attention(q, k, v, plan.to_block_mask())
        assert (
            b.visited_blocks.sum() * cfg.block_size**2
            >= a.kernel.computed_elements.sum()
        )
        # The kernel result carries the same footprint as its tile view.
        np.testing.assert_array_equal(a.kernel.visited_blocks, b.visited_blocks)

    @pytest.mark.parametrize("s_q", [64, 700])  # chunk-shaped / one-shot
    def test_is_the_packed_kernel_as_a_batch_of_one(self, rng, s_q):
        s_k = 700
        q = rng.standard_normal((4, s_q, 16), dtype=np.float32)
        k = rng.standard_normal((2, s_k, 16), dtype=np.float32)
        v = rng.standard_normal((2, s_k, 16), dtype=np.float32)
        cfg = SampleAttentionConfig(alpha=0.9)
        plan = dataclasses.replace(
            plan_sample_attention(q, k, cfg), extras={"bands": [(200, 230)]}
        )
        res = sample_attention(
            q, k, v, cfg, plan=plan, scale=0.2, workspace=KernelWorkspace()
        )
        direct = packed_block_sparse_attention(
            [PackedItem.from_plan(q, k, v, plan, scale=0.2)]
        ).results[0]
        np.testing.assert_array_equal(res.output, direct.output)
        np.testing.assert_array_equal(
            res.kernel.computed_elements, direct.computed_elements
        )

    def test_workspace_is_reused_across_calls(self, rng):
        q, k, v = structured_qkv(rng)
        ws = KernelWorkspace()
        first = sample_attention(q, k, v, workspace=ws)
        warm = ws.allocations
        assert warm > 0
        again = sample_attention(q, k, v, workspace=ws)
        assert ws.allocations == warm
        np.testing.assert_array_equal(first.output, again.output)

    def test_rejects_a_plan_built_for_another_length(self, rng):
        # A stale plan's window and accounting were sized for a different
        # prefix: it must fail loudly, not execute.
        q, k, v = random_qkv(rng, h=2, s=96, d=8)
        plan = plan_sample_attention(q[:, :64], k[:, :64])
        with pytest.raises(MaskError):
            sample_attention(q, k, v, plan=plan)
        with pytest.raises(MaskError):  # same keys, fewer query rows
            sample_attention(q[:, 32:], k, v, plan=plan_sample_attention(q, k))
        ok = sample_attention(q, k, v, plan=plan.extended(s_q=96, s_k=96))
        assert ok.output.shape == q.shape

    def test_gqa(self, rng):
        q, k, v = random_qkv(rng, h=4, s=64, d=8, h_kv=2)
        res = sample_attention(q, k, v, SampleAttentionConfig(alpha=0.9))
        assert res.output.shape == (4, 64, 8)
        assert len(res.plan.kv_indices) == 4

    def test_kernel_density_matches_plan_estimate(self, rng):
        q, k, v = structured_qkv(rng)
        cfg = SampleAttentionConfig(alpha=0.9)
        res = sample_attention(q, k, v, cfg)
        np.testing.assert_allclose(
            res.kernel.element_density, res.plan.element_density(), rtol=1e-6
        )
        # ``density`` is the tile footprint's -- coarser, never smaller.
        assert res.kernel.density >= res.kernel.element_density

    def test_sink_tokens_always_covered(self, rng):
        q, k, v = structured_qkv(rng)
        cfg = SampleAttentionConfig(alpha=0.5, sink_tokens=4)
        res = sample_attention(q, k, v, cfg)
        # The last row attends to the sinks regardless of stage-2 choices:
        # zeroing sink V entries must change its output.
        v2 = v.copy()
        v2[:, :4] = 100.0
        res2 = sample_attention(q, k, v2, cfg, plan=res.plan)
        assert np.abs(res2.output[:, -1] - res.output[:, -1]).max() > 1e-4

    def test_deterministic(self, rng):
        q, k, v = structured_qkv(rng)
        a = sample_attention(q, k, v)
        b = sample_attention(q, k, v)
        np.testing.assert_array_equal(a.output, b.output)
