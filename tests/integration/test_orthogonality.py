"""SampleAttention + H2O: prefill compute reduction composes with
decode-time KV-cache compression (paper Section 1: "orthogonal and can be
combined with existing KV cache eviction approaches")."""

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.backends import SampleAttentionBackend
from repro.baselines import H2OPolicy
from repro.baselines.h2o import recording_attend
from repro.tasks import make_needle_case
from repro.vocab import DEFAULT_VOCAB as V


class TestSampleAttentionPlusH2O:
    def test_generation_with_eviction_runs(self, glm_mini):
        case = make_needle_case(512, 0.4, rng=np.random.default_rng(7))
        res = glm_mini.generate(
            case.prompt,
            len(case.answer),
            backend=SampleAttentionBackend(SampleAttentionConfig()),
            kv_policy=H2OPolicy(budget=600),
        )
        assert len(res.tokens) == len(case.answer)

    def test_generous_budget_preserves_answer(self, glm_mini):
        """With the budget above the prompt length nothing is evicted and
        the combination is exactly SampleAttention."""
        case = make_needle_case(512, 0.4, rng=np.random.default_rng(7))
        plain = glm_mini.generate(
            case.prompt,
            len(case.answer),
            backend=SampleAttentionBackend(SampleAttentionConfig()),
        )
        combo = glm_mini.generate(
            case.prompt,
            len(case.answer),
            backend=SampleAttentionBackend(SampleAttentionConfig()),
            kv_policy=H2OPolicy(budget=10_000),
        )
        assert plain.tokens == combo.tokens == list(case.answer)

    def test_eviction_shrinks_cache(self, glm_mini):
        prompt = np.concatenate(
            [[V.BOS], V.sample_filler(np.random.default_rng(1), 300)]
        ).astype(np.int64)
        caches = glm_mini.new_caches(capacity=512)
        glm_mini.prefill(prompt, caches=caches)
        policy = H2OPolicy(budget=128)
        # H2O's statistic is its own: one mass array per layer, fed by its
        # recording attend_batch, as Transformer.generate runs it.
        mass = [np.zeros((glm_mini.config.n_kv_heads, 512)) for _ in caches]
        for step, tok in enumerate(range(3)):
            glm_mini.decode_batch(
                [(int(V.filler_ids[tok]), prompt.size + step, caches)],
                recording_attend([mass]),
            )
            policy.evict(caches, mass)
        assert all(len(c) <= 128 + 1 for c in caches)
        assert all(m[:, : len(c)].any() for m, c in zip(mass, caches))

    def test_multi_step_decode_with_tight_budget(self, glm_mini):
        """A tight budget degrades gracefully (no crash, plausible tokens)."""
        case = make_needle_case(512, 0.9, rng=np.random.default_rng(17))
        res = glm_mini.generate(
            case.prompt,
            4,
            backend=SampleAttentionBackend(SampleAttentionConfig()),
            kv_policy=H2OPolicy(budget=96),
        )
        assert len(res.tokens) == 4
        assert all(0 <= t < V.size for t in res.tokens)
