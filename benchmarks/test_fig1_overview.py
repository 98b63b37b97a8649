"""Figure 1 bench: attention's share of TTFT and headline speedups.

Times the cost-model sweep and asserts the overview shape: attention
dominates TTFT at long contexts and SampleAttention's speedup grows with
sequence length.
"""

from repro.harness import run_experiment
from repro.perf import CHATGLM2_6B, LatencyModel


def test_fig1_overview_benchmark(benchmark):
    tables = benchmark(run_experiment, "fig1")
    t = tables[0]
    shares = t.column("attn_share_%")
    speed95 = t.column("speedup_a0.95")
    assert shares == sorted(shares)  # attention share grows with S
    assert speed95[-1] > speed95[0]  # speedup grows with S
    assert shares[-1] > 85.0  # attention dominates at 1M


def test_fig1_attention_dominates_at_1m(benchmark):
    model = LatencyModel(CHATGLM2_6B)
    share = benchmark(model.attention_share, 1048576)
    assert share > 0.9
