"""Figures 9-11 bench: attention visualisation and KV-retention statistics."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_heatmap,
    dense_probs,
    kv_retention_frequency,
    oracle_sd,
)


@pytest.fixture(scope="module")
def layer1_probs(glm_mini, needle_1k):
    return dense_probs(glm_mini, needle_1k.prompt)[1]


def test_fig9_heatmap_render_benchmark(benchmark, layer1_probs):
    art = benchmark(ascii_heatmap, layer1_probs[4], rows=24, cols=48)
    lines = art.splitlines()
    assert len(lines) == 24 and all(len(l) == 48 for l in lines)


def test_fig9_sink_column_visible(layer1_probs):
    """The sink head's heatmap has a saturated left column."""
    art = ascii_heatmap(layer1_probs[6], rows=16, cols=32)
    left = [line[0] for line in art.splitlines()]
    assert sum(c in "%@#" for c in left) > 8


def test_fig11_retention_benchmark(benchmark, layer1_probs):
    sd = oracle_sd(layer1_probs, 0.95)
    dense_head = int(np.argmin(sd))
    sparse_head = int(np.argmax(sd))
    freq = benchmark(
        kv_retention_frequency, layer1_probs[[dense_head, sparse_head]], 0.95
    )
    # The dense head retains most keys for most rows; the sparse head
    # touches almost nothing outside its structure.
    assert freq[0].mean() > 5 * freq[1].mean()
