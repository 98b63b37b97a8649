"""Chunked prefill composed with sparse backends and the harness methods."""

import numpy as np
import pytest

from repro.harness import make_backend
from repro.tasks import make_needle_case


@pytest.mark.parametrize("method", ["full", "sample_attention", "streaming_llm"])
def test_chunked_prefill_runs_every_method(glm_mini, method):
    """Every backend handles right-aligned chunk queries (S_q < S_k)."""
    case = make_needle_case(512, 0.3, rng=np.random.default_rng(3))
    hidden, stats = glm_mini.prefill(
        case.prompt, make_backend(method), chunk_size=128
    )
    assert hidden.shape == (128, glm_mini.config.d_model)
    assert len(stats) == glm_mini.config.n_layers
    assert all(0.0 <= s["density"] <= 1.0 for s in stats)


def test_chunked_full_answers_match_monolithic(glm_mini):
    case = make_needle_case(640, 0.5, rng=np.random.default_rng(5))
    mono, _ = glm_mini.prefill(case.prompt)
    chunk, _ = glm_mini.prefill(case.prompt, chunk_size=200)
    a = int(np.argmax(glm_mini.logits(mono[-1:])[0]))
    b = int(np.argmax(glm_mini.logits(chunk[-1:])[0]))
    assert a == b == case.answer[0]


def test_streaming_chunked_loses_buried_needle(glm_mini):
    """The chunked path preserves each method's semantics: sink+window
    still cannot reach a mid-context needle."""
    case = make_needle_case(768, 0.5, rng=np.random.default_rng(7))
    hidden, _ = glm_mini.prefill(
        case.prompt, make_backend("streaming_llm"), chunk_size=256
    )
    first = int(np.argmax(glm_mini.logits(hidden[-1:])[0]))
    assert first != case.answer[0]
