"""Figure 5 bench: attention kernel speed at prefill.

Wall-clock benchmarks of the substrate kernels (the measured analogue of
Figure 5a) plus cost-model assertions for the paper-scale speedups and the
sampling-overhead trend (Figures 5a-5c).
"""

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.attention import dense_attention, flash_attention
from repro.core import plan_sample_attention, sample_attention
from repro.perf import CHATGLM2_6B, LatencyModel


def test_fig5_measured_flash_kernel(benchmark, layer_qkv):
    q, k, v, scale = layer_qkv
    out = benchmark(flash_attention, q, k, v, scale=scale)
    assert out.shape == q.shape


def test_fig5_measured_sdpa_kernel(benchmark, layer_qkv):
    q, k, v, scale = layer_qkv
    res = benchmark(dense_attention, q, k, v, scale=scale)
    assert res.output.shape == q.shape


def test_fig5_measured_sample_attention(benchmark, layer_qkv):
    q, k, v, scale = layer_qkv
    res = benchmark(
        sample_attention, q, k, v, SampleAttentionConfig(alpha=0.95), scale=scale
    )
    assert res.kernel.element_density < 0.7  # on model activations, plans are sparse


def test_fig5_measured_sampling_stage_only(benchmark, layer_qkv):
    q, k, _, scale = layer_qkv
    plan = benchmark(
        plan_sample_attention, q, k, SampleAttentionConfig(alpha=0.95), scale=scale
    )
    assert plan.sampling_fraction() == pytest.approx(0.05, abs=0.01)


def test_fig5a_paper_scale_speedups():
    model = LatencyModel(CHATGLM2_6B)
    assert model.speedup_vs_flash(98304, alpha=0.95) == pytest.approx(2.20, rel=0.05)
    assert model.speedup_vs_flash(98304, alpha=0.80) == pytest.approx(5.12, rel=0.05)
    assert model.speedup_vs_flash(8192, alpha=0.95) <= 1.1


def test_fig5b_sampling_share_decreases():
    model = LatencyModel(CHATGLM2_6B)
    fracs = [
        model.attention_latency(s, "sample").sampling_fraction
        for s in (8192, 32768, 98304)
    ]
    assert fracs == sorted(fracs, reverse=True)


def test_fig5c_ttft_speedups():
    model = LatencyModel(CHATGLM2_6B)
    assert model.ttft_speedup_vs_flash(98304, alpha=0.95) == pytest.approx(1.62, rel=0.15)
    assert model.ttft_speedup_vs_flash(98304, alpha=0.80) == pytest.approx(2.28, rel=0.15)
