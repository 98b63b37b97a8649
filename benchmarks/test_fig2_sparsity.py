"""Figure 2 bench: the sparsity foundations (SD per layer/length/head,
pattern classification, stripe CRA)."""

import numpy as np
import pytest

from repro.analysis import (
    classify_head,
    dense_probs,
    model_sparsity_sweep,
    topk_stripe_cra,
)
from repro.tasks import make_needle_case


def test_fig2a_layer_sparsity_benchmark(benchmark, glm_mini, needle_1k):
    sweep = benchmark(model_sparsity_sweep, glm_mini, needle_1k.prompt, 0.95)
    # Inherently high sparsity: most layers above 80% SD.
    assert np.all(sweep.per_layer > 0.8)


def test_fig2b_sd_grows_with_length(glm_mini):
    means = []
    for s in (512, 1024, 2048):
        case = make_needle_case(s, 0.5, rng=np.random.default_rng(7))
        means.append(model_sparsity_sweep(glm_mini, case.prompt, 0.95).mean)
    assert means[0] <= means[1] <= means[2]


def test_fig2c_head_disparity(glm_mini, needle_1k):
    sweep = model_sparsity_sweep(glm_mini, needle_1k.prompt, 0.95)
    # One deliberately dense head far below the rest (paper: 27.4% vs 99.8%).
    assert sweep.min_head < 0.2
    assert sweep.per_head.max() > 0.95


def test_fig2d_pattern_classification_benchmark(benchmark, glm_mini, needle_1k):
    probs = dense_probs(glm_mini, needle_1k.prompt)[1]

    def classify_all():
        return [classify_head(probs[h]).label for h in range(8)]

    labels = benchmark(classify_all)
    assert "window" in labels
    assert "sink" in labels or "stripe" in labels
    assert "dense" in labels


def test_fig2e_stripe_cra_benchmark(benchmark, glm_mini, needle_1k):
    probs = dense_probs(glm_mini, needle_1k.prompt)[1]
    w = max(1, int(0.08 * needle_1k.prompt.size))
    ratios = [0.05, 0.2, 0.8]
    vals = benchmark(topk_stripe_cra, probs, ratios, window=w)
    means = vals.mean(axis=0)
    assert np.all(np.diff(means) >= -1e-9)  # CRA grows with stripe budget
    assert means[-1] > 0.8
