"""Table 4 bench: prefill TTFT breakdown at TP=4 (cost model)."""

import pytest

from repro.harness import run_experiment
from repro.perf import CHATGLM2_6B, LatencyModel


def test_table4_breakdown_benchmark(benchmark):
    tables = benchmark(run_experiment, "table4")
    t = tables[0]
    percents = t.column("percent")
    # Attention share rises monotonically from ~1/3 toward ~90% (paper:
    # 32.2% at 32K to 87.7% at 1M).
    assert percents == sorted(percents)
    assert 20.0 < percents[0] < 55.0
    assert percents[-1] > 80.0


def test_table4_ttft_magnitude_at_32k():
    """Paper measures 1273ms at 32K (TP=4, PP=2); the roofline should land
    in the same order of magnitude."""
    model = LatencyModel(CHATGLM2_6B, tensor_parallel=4)
    ttft_ms = model.ttft(32768, "flash") * 1e3
    assert 400 < ttft_ms < 4000
