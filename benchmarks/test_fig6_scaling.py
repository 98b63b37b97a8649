"""Figure 6 bench: latency scaling to 1M tokens (cost model)."""

import pytest

from repro.harness import run_experiment
from repro.perf import CHATGLM2_6B, LatencyModel


def test_fig6_scaling_benchmark(benchmark):
    tables = benchmark(run_experiment, "fig6")
    t = tables[0]
    ttft_95 = t.column("ttft_speedup_a0.95")
    ttft_80 = t.column("ttft_speedup_a0.80")
    # Speedups grow with length and alpha=0.80 dominates alpha=0.95.
    assert ttft_95[-1] > ttft_95[0]
    assert all(a80 >= a95 for a80, a95 in zip(ttft_80, ttft_95))


def test_fig6_1m_ttft_reduction():
    """Paper: 2.27x / 4.62x at 1M; our roofline overshoots (documented in
    EXPERIMENTS.md) but must stay in the same regime and ordering."""
    model = LatencyModel(CHATGLM2_6B)
    s95 = model.ttft_speedup_vs_flash(1048576, alpha=0.95)
    s80 = model.ttft_speedup_vs_flash(1048576, alpha=0.80)
    assert 1.8 < s95 < 4.0
    assert 3.5 < s80 < 9.0
    assert s80 > s95


def test_fig6_attention_latency_quadratic_flash():
    model = LatencyModel(CHATGLM2_6B)
    a = model.attention_latency(131072, "flash").seconds
    b = model.attention_latency(262144, "flash").seconds
    assert b / a == pytest.approx(4.0, rel=0.1)
