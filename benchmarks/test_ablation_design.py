"""Design-choice ablations beyond the paper's Table 3 (DESIGN.md list):

* stage-1 sampling anchor (end-anchored stride vs start-anchored),
* stage-1 column reduction (sum vs max vs mean),
* per-head vs per-layer shared I_KV,
* stage-2 selection mode (exact vs the paper's quantized grid),
* stripe-granular vs tile-aligned execution of the same plan.
"""

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.attention import fast_block_sparse_attention
from repro.core import (
    plan_sample_attention,
    sample_attention,
    sample_column_scores,
    sampled_row_indices,
    select_kv_indices,
)


class TestSamplingAnchor:
    def test_end_anchor_covers_question_rows(self, layer_qkv):
        q, _, _, _ = layer_qkv
        s = q.shape[1]
        end = sampled_row_indices(s, 0.05, from_end=True)
        start = sampled_row_indices(s, 0.05, from_end=False)
        assert end[-1] == s - 1
        assert start[-1] < s - 1

    def test_anchor_benchmark(self, benchmark, layer_qkv):
        q, k, _, scale = layer_qkv
        s = q.shape[1]

        def plan_both():
            a = sample_column_scores(
                q, k, sampled_row_indices(s, 0.05, from_end=True), scale=scale
            )
            b = sample_column_scores(
                q, k, sampled_row_indices(s, 0.05, from_end=False), scale=scale
            )
            return a, b

        a, b = benchmark(plan_both)
        assert a.column_scores.shape == b.column_scores.shape


class TestReductionAblation:
    @pytest.mark.parametrize("reduction", ["sum", "max", "mean"])
    def test_reduction_benchmark(self, benchmark, layer_qkv, reduction):
        q, k, _, scale = layer_qkv
        rows = sampled_row_indices(q.shape[1], 0.05)
        stats = benchmark(
            sample_column_scores, q, k, rows, scale=scale, reduction=reduction
        )
        assert np.all(stats.column_scores >= 0)

    def test_sum_biases_early_columns_vs_mean(self, layer_qkv):
        """'sum' counts visibility; 'mean' normalises it away -- the early
        columns' rank drops under 'mean' for the dense head."""
        q, k, _, scale = layer_qkv
        rows = sampled_row_indices(q.shape[1], 0.2)
        s_sum = sample_column_scores(q, k, rows, scale=scale, reduction="sum")
        s_mean = sample_column_scores(q, k, rows, scale=scale, reduction="mean")
        head = 7  # deliberately dense head in glm-mini layer 1
        early_rank_sum = np.argsort(-s_sum.column_scores[head])[:50]
        early_rank_mean = np.argsort(-s_mean.column_scores[head])[:50]
        assert np.median(early_rank_sum) <= np.median(early_rank_mean)


class TestSharedIkvAblation:
    def test_per_layer_sharing_costs_coverage(self, layer_qkv):
        """Sharing one I_KV across heads (per-layer) needs more columns to
        cover every head's alpha than per-head selection keeps on average."""
        q, k, _, scale = layer_qkv
        rows = sampled_row_indices(q.shape[1], 0.05)
        stats = sample_column_scores(q, k, rows, scale=scale)
        per_head = select_kv_indices(stats.column_scores, 0.95)
        shared = select_kv_indices(
            stats.column_scores.sum(axis=0, keepdims=True), 0.95
        )
        shared_ratio = shared.kv_ratio[0]
        assert shared_ratio >= per_head.kv_ratio.min()

    def test_sharing_benchmark(self, benchmark, layer_qkv):
        q, k, _, scale = layer_qkv
        rows = sampled_row_indices(q.shape[1], 0.05)
        stats = sample_column_scores(q, k, rows, scale=scale)
        res = benchmark(
            select_kv_indices, stats.column_scores.sum(axis=0, keepdims=True), 0.95
        )
        assert len(res.kv_indices) == 1


class TestSelectionModeAblation:
    def test_quantized_keeps_more(self, layer_qkv):
        q, k, _, scale = layer_qkv
        exact = plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=0.95), scale=scale,
            selection_mode="exact",
        )
        quant = plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=0.95), scale=scale,
            selection_mode="quantized",
        )
        assert quant.mean_kv_ratio >= exact.mean_kv_ratio - 1e-9

    @pytest.mark.parametrize("mode", ["exact", "quantized"])
    def test_mode_benchmark(self, benchmark, layer_qkv, mode):
        q, k, _, scale = layer_qkv
        plan = benchmark(
            plan_sample_attention,
            q,
            k,
            SampleAttentionConfig(alpha=0.95),
            scale=scale,
            selection_mode=mode,
        )
        assert plan.mean_kv_ratio > 0


def _execute_striped(q, k, v, plan, scale):
    """The plan executor: gathered ``I_KV`` columns + window band."""
    return sample_attention(q, k, v, plan.config, scale=scale, plan=plan)


def _execute_block(q, k, v, plan, scale):
    """The same plan rasterised to tiles and run on the block kernel."""
    return fast_block_sparse_attention(
        q, k, v, plan.to_block_mask(), scale=scale
    )


class TestExecutionAblation:
    @pytest.mark.parametrize("execute", [_execute_striped, _execute_block])
    def test_execution_benchmark(self, benchmark, layer_qkv, execute):
        q, k, v, scale = layer_qkv
        cfg = SampleAttentionConfig(alpha=0.95, block_size=64)
        plan = plan_sample_attention(q, k, cfg, scale=scale)
        res = benchmark.pedantic(
            execute, args=(q, k, v, plan, scale), rounds=2, iterations=1
        )
        assert res.output.shape == q.shape

    def test_block_execution_wastes_elements(self, layer_qkv):
        """Tile-aligned stripes compute strictly more score entries than the
        gathered kernel for the same plan -- the motivation for gathering."""
        q, k, v, scale = layer_qkv
        cfg = SampleAttentionConfig(alpha=0.95, block_size=64)
        plan = plan_sample_attention(q, k, cfg, scale=scale)
        striped = _execute_striped(q, k, v, plan, scale)
        block = _execute_block(q, k, v, plan, scale)
        assert (
            block.visited_blocks.sum() * cfg.block_size**2
            > striped.kernel.computed_elements.sum()
        )
        assert striped.kernel.element_density < striped.kernel.density


class TestDiagonalExtension:
    """Appendix A.6 future work: diagonal pattern capture."""

    def _diagonal_qkv(self, seed=0, h=2, s=256, d=16, delta=64):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((h, s, d)).astype(np.float32)
        k /= np.linalg.norm(k, axis=-1, keepdims=True)
        q = 0.2 * rng.standard_normal((h, s, d)).astype(np.float32)
        q[:, delta:] += 10.0 * np.sqrt(d) * k[:, :-delta]
        v = rng.standard_normal((h, s, d)).astype(np.float32)
        return q, k, v

    def test_detection_benchmark(self, benchmark):
        from repro.core import detect_diagonal_bands

        q, k, _ = self._diagonal_qkv()
        bands = benchmark(
            detect_diagonal_bands, q, k, window=16, r_row=0.2, pad=4
        )
        assert any(lo <= 64 < hi for lo, hi in bands)

    def test_band_capture_cheaper_than_stripes(self):
        """Covering a diagonal with a band costs O(S * width); covering it
        with stripes would need O(S) columns."""
        from repro.attention import dense_attention
        from repro.core import plan_sample_attention, sample_attention

        q, k, v = self._diagonal_qkv()
        ref = dense_attention(q, k, v).output
        cfg = SampleAttentionConfig(alpha=0.5, r_row=0.2, r_window=0.05)
        plan = plan_sample_attention(q, k, cfg, detect_diagonals=True)
        res = sample_attention(q, k, v, cfg, plan=plan)
        assert float(np.abs(res.output - ref).mean()) < 0.1
        assert res.kernel.element_density < 0.4
