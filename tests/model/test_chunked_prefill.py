"""Tests for chunked prefill (paper Appendix A.6 serving strategy)."""

import numpy as np
import pytest

from repro.attention import flash_attention
from repro.backends import SampleAttentionBackend
from repro.errors import ArenaExhaustedError, FaultInjectionError, ModelError
from repro.memory import KVArena, PagedLayerKVCache
from repro.model import ModelConfig, Transformer
from repro.model.weights import random_weights
from repro.tasks import make_needle_case


@pytest.fixture(scope="module")
def tiny_model():
    config = ModelConfig(
        n_layers=2, n_heads=4, n_kv_heads=2, vocab_size=64, norm="rms",
        mlp_ratio=1.0, name="tiny-random",
    )
    return Transformer(random_weights(config, seed=3, scale=0.05))


class TestChunkedPrefill:
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 64, 1000])
    def test_matches_monolithic(self, tiny_model, rng, chunk_size):
        tokens = rng.integers(0, 64, size=48)
        mono, _ = tiny_model.prefill(tokens)
        chunked, _ = tiny_model.prefill_chunked(tokens, chunk_size=chunk_size)
        n = chunked.shape[0]
        np.testing.assert_allclose(chunked, mono[-n:], atol=1e-4)

    def test_caches_complete(self, tiny_model, rng):
        tokens = rng.integers(0, 64, size=40)
        caches = tiny_model.new_caches(capacity=40)
        tiny_model.prefill_chunked(tokens, chunk_size=16, caches=caches)
        assert all(len(c) == 40 for c in caches)
        # Cache contents equal the monolithic projection.
        mono_caches = tiny_model.new_caches(capacity=40)
        tiny_model.prefill(tokens, caches=mono_caches)
        np.testing.assert_allclose(
            caches[0].keys, mono_caches[0].keys, atol=1e-5
        )

    def test_first_token_logits_match(self, tiny_model, rng):
        tokens = rng.integers(0, 64, size=50)
        mono, _ = tiny_model.prefill(tokens)
        chunked, _ = tiny_model.prefill_chunked(tokens, chunk_size=13)
        np.testing.assert_allclose(
            tiny_model.logits(chunked[-1:]),
            tiny_model.logits(mono[-1:]),
            atol=1e-4,
        )

    def test_rejects_bad_args(self, tiny_model, rng):
        with pytest.raises(ModelError):
            tiny_model.prefill_chunked(np.array([], dtype=np.int64))
        with pytest.raises(ModelError):
            tiny_model.prefill_chunked(rng.integers(0, 64, size=4), chunk_size=0)
        with pytest.raises(ModelError):
            tiny_model.prefill_chunked(rng.integers(0, 64, size=4), caches=[])

    def test_sample_attention_chunked_retrieval(self, glm_mini):
        """SampleAttention under chunked prefill still answers the needle:
        stage-1 samples each chunk's rows against the full cached keys."""
        case = make_needle_case(768, 0.3, rng=np.random.default_rng(8))
        hidden, stats = glm_mini.prefill_chunked(
            case.prompt,
            SampleAttentionBackend(),
            chunk_size=256,
        )
        first = int(np.argmax(glm_mini.logits(hidden[-1:])[0]))
        assert first == case.answer[0]
        assert stats and stats[0]["density"] <= 1.0


class TestChunkIsBatchOfOne:
    """``prefill_chunk`` is ``prefill_chunk_batch`` of one: the model has
    one prefill implementation, bitwise, on either KV backend."""

    @staticmethod
    def _caches(model, backend):
        cfg = model.config
        if backend == "contiguous":
            return model.new_caches(capacity=48)
        arena = KVArena(4 * cfg.n_layers, cfg.n_kv_heads, 16, cfg.d_head)
        return [PagedLayerKVCache(arena) for _ in range(cfg.n_layers)]

    @staticmethod
    def _attend(i, q, keys, values, scale):
        return flash_attention(q, keys, values, scale=scale)

    @pytest.mark.parametrize("backend", ["contiguous", "paged"])
    def test_bitwise_equal(self, tiny_model, rng, backend):
        tokens = rng.integers(0, 64, size=40)
        single = self._caches(tiny_model, backend)
        batched = self._caches(tiny_model, backend)
        for c0, c1 in [(0, 24), (24, 40)]:
            pos = np.arange(c0, c1, dtype=np.int64)
            x = tiny_model.prefill_chunk(tokens[c0:c1], pos, single, self._attend)
            (xb,) = tiny_model.prefill_chunk_batch(
                [(tokens[c0:c1], pos, batched)],
                lambda i, entries: {0: self._attend(i, *entries[0])},
            )
            np.testing.assert_array_equal(x, xb)
        for a, b in zip(single, batched):
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)

    def test_errors_propagate(self, tiny_model, rng):
        tokens = rng.integers(0, 64, size=8)
        pos = np.arange(8, dtype=np.int64)

        def boom(i, q, keys, values, scale):
            raise FaultInjectionError("attend failed")

        with pytest.raises(FaultInjectionError):
            tiny_model.prefill_chunk(
                tokens, pos, tiny_model.new_caches(capacity=8), boom
            )
        cfg = tiny_model.config
        arena = KVArena(1, cfg.n_kv_heads, 4, cfg.d_head)  # too small
        caches = [PagedLayerKVCache(arena) for _ in range(cfg.n_layers)]
        with pytest.raises(ArenaExhaustedError):
            tiny_model.prefill_chunk(tokens, pos, caches, self._attend)
        with pytest.raises(ModelError):
            tiny_model.prefill_chunk(tokens, pos, [], self._attend)
