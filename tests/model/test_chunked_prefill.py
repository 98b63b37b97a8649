"""Tests for chunked prefill (paper Appendix A.6 serving strategy)."""

import numpy as np
import pytest

from repro import pool
from repro.attention import flash_attention
from repro.backends import FullAttentionBackend, SampleAttentionBackend
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
        chunked, _ = tiny_model.prefill(tokens, chunk_size=chunk_size)
        n = chunked.shape[0]
        np.testing.assert_allclose(chunked, mono[-n:], atol=1e-4)

    def test_caches_complete(self, tiny_model, rng):
        tokens = rng.integers(0, 64, size=40)
        caches = tiny_model.new_caches(capacity=40)
        tiny_model.prefill(tokens, chunk_size=16, caches=caches)
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
        chunked, _ = tiny_model.prefill(tokens, chunk_size=13)
        np.testing.assert_allclose(
            tiny_model.logits(chunked[-1:]),
            tiny_model.logits(mono[-1:]),
            atol=1e-4,
        )

    def test_rejects_bad_args(self, tiny_model, rng):
        with pytest.raises(ModelError):
            tiny_model.prefill(np.array([], dtype=np.int64))
        with pytest.raises(ModelError):
            tiny_model.prefill(rng.integers(0, 64, size=4), chunk_size=0)
        with pytest.raises(ModelError):
            tiny_model.prefill(rng.integers(0, 64, size=4), caches=[])

    def test_sample_attention_chunked_retrieval(self, glm_mini):
        """SampleAttention under chunked prefill still answers the needle:
        stage-1 samples each chunk's rows against the full cached keys."""
        case = make_needle_case(768, 0.3, rng=np.random.default_rng(8))
        hidden, stats = glm_mini.prefill(
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


class TestUnreadChunk:
    """A chunk whose rows nobody reads stops at its last layer's KV append:
    it reaches ``attend_batch`` at every layer but the last, and leaves
    every cache -- and every read chunk's rows -- bitwise as if it had been
    read."""

    LENS = (37, 5, 64)

    @staticmethod
    def _step(model, rng, read):
        caches = [model.new_caches(capacity=256) for _ in TestUnreadChunk.LENS]
        tokens = [rng.integers(0, model.config.vocab_size, size=n) for n in
                  TestUnreadChunk.LENS]
        reached = []

        def attend_batch(i, entries):
            reached.append((i, sorted(entries)))
            return {
                b: flash_attention(q, k, v, scale=s)
                for b, (q, k, v, s) in entries.items()
            }

        # Two steps: each request's first half, then its second half, whose
        # queries attend to the first's cached keys.
        rows = None
        for half in (0, 1):
            chunks = []
            for t, c in zip(tokens, caches):
                c0, c1 = (0, t.size // 2) if half == 0 else (t.size // 2, t.size)
                chunks.append((t[c0:c1], np.arange(c0, c1, dtype=np.int64), c))
            rows = model.prefill_chunk_batch(chunks, attend_batch, read=read)
        return rows, caches, reached

    @pytest.mark.parametrize("model_name", ["tiny_model", "glm_mini"])
    def test_unread_chunks_attend_below_the_last_layer_only(
        self, request, model_name
    ):
        model = request.getfixturevalue(model_name)
        n_layers = model.config.n_layers
        read = [False, True, False]
        rows, caches, reached = self._step(model, np.random.default_rng(5), read)
        every_rows, every_caches, _ = self._step(
            model, np.random.default_rng(5), None
        )
        for step in (reached[:n_layers], reached[n_layers:]):
            assert step == [
                (i, [1] if i == n_layers - 1 else [0, 1, 2])
                for i in range(n_layers)
            ]
        # The read chunk's rows, and every cache, are the all-read run's.
        np.testing.assert_array_equal(rows[1], every_rows[1])
        for b in (0, 2):
            assert rows[b] is not None
            assert rows[b].shape == (0, model.config.d_model)
        for mine, every in zip(caches, every_caches):
            for a, c in zip(mine, every):
                np.testing.assert_array_equal(a.keys, c.keys)
                np.testing.assert_array_equal(a.values, c.values)

    def test_no_read_chunk_skips_the_last_layer_call(self, tiny_model):
        _, _, reached = self._step(
            tiny_model, np.random.default_rng(6), [False] * 3
        )
        assert [i for i, _ in reached] == [0, 0]  # two steps, layer 0 only

    def test_prefill_attends_only_where_the_last_chunk_is_read(
        self, glm_mini
    ):
        tokens = np.random.default_rng(7).integers(0, 1024, size=70)
        calls = []

        class Spy(FullAttentionBackend):
            def prefill(self, q, k, v, *, scale=None, layer=0):
                calls.append(layer)
                return super().prefill(q, k, v, scale=scale, layer=layer)

        caches = glm_mini.new_caches(capacity=70)
        hidden, stats = glm_mini.prefill(
            tokens, Spy(), chunk_size=32, caches=caches
        )
        n = glm_mini.config.n_layers
        assert calls == [*range(n - 1), *range(n - 1), *range(n)]
        assert len(stats) == n
        # Bitwise the run that reads every chunk.
        every = glm_mini.new_caches(capacity=70)
        backend = FullAttentionBackend()
        for c0 in range(0, 70, 32):
            c1 = min(c0 + 32, 70)
            x = glm_mini.prefill_chunk(
                tokens[c0:c1], np.arange(c0, c1), every,
                lambda i, q, k, v, s: backend.prefill(q, k, v, scale=s, layer=i),
            )
        np.testing.assert_array_equal(hidden, x)
        for a, c in zip(caches, every):
            np.testing.assert_array_equal(a.keys, c.keys)
            np.testing.assert_array_equal(a.values, c.values)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kv_only_projection_is_the_fused_gemms_kv(self, glm_mini, workers):
        rng = np.random.default_rng(8)
        layer = glm_mini.layers[-1]
        for s in (1, 3, 37, 100, 257, 1024):
            x = rng.standard_normal((s, glm_mini.config.d_model))
            x = x.astype(np.float32)
            pos = np.arange(500, 500 + s)
            with pool._forced_workers(workers):
                _, k, v = layer.project_qkv(x, pos)
                k_only, v_only = layer.project_kv(x, pos)
            np.testing.assert_array_equal(k_only, k)
            np.testing.assert_array_equal(v_only, v)
