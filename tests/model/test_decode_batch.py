"""Fused batched decode vs per-request ``decode_step``: bitwise parity.

``Transformer.decode_batch`` is the decode-serving quantum; its contract
is that survivor logits -- and therefore greedy tokens and cache contents
-- are *bitwise* identical to running ``decode_step`` on each request
alone.  These tests pin that contract on both cache backends (the model
is GQA: 4 query heads over 2 KV heads), through mid-stream H2O eviction,
and through the exhaustion-rollback-replay path the serving engine uses
(staged attention mass must not double-count).
"""

import numpy as np
import pytest

from repro.baselines.h2o import H2OPolicy
from repro.errors import ModelError
from repro.memory import KVArena, PagedLayerKVCache
from repro.model import ModelConfig, Transformer
from repro.model.weights import random_weights


@pytest.fixture(scope="module")
def model():
    config = ModelConfig(
        n_layers=2, n_heads=4, n_kv_heads=2, vocab_size=64, norm="rms",
        mlp_ratio=1.0, name="tiny-random",
    )
    return Transformer(random_weights(config, seed=1, scale=0.05))


PROMPTS = [  # deliberately ragged lengths -> ragged KV per entry
    np.arange(1, 9, dtype=np.int64),
    np.arange(10, 23, dtype=np.int64) % 64,
    np.arange(30, 35, dtype=np.int64),
]


def contiguous_caches(model, prompts):
    out = []
    for p in prompts:
        caches = model.new_caches()
        model.prefill(p, caches=caches)
        out.append(caches)
    return out


def paged_caches(model, prompts, *, blocks_per_request=24):
    arena = KVArena(
        blocks_per_request * len(prompts) * model.config.n_layers,
        model.config.n_kv_heads, 4, model.config.d_head,
    )
    out = []
    for p in prompts:
        caches = [PagedLayerKVCache(arena) for _ in model.layers]
        model.prefill(p, caches=caches)
        out.append(caches)
    return out


def greedy(logits):
    return int(np.argmax(logits))


def run_sequential(model, prompts, cache_sets, steps, **kw):
    """Per-request decode_step baseline; returns per-request logit lists."""
    all_logits = []
    for p, caches in zip(prompts, cache_sets):
        tok, pos = int(p[-1]), len(p)
        series = []
        for _ in range(steps):
            lg = model.decode_step(tok, pos, caches, **kw)
            series.append(lg)
            tok, pos = greedy(lg), pos + 1
        all_logits.append(series)
    return all_logits


def run_batched(model, prompts, cache_sets, steps, **kw):
    toks = [int(p[-1]) for p in prompts]
    poss = [len(p) for p in prompts]
    all_logits = [[] for _ in prompts]
    for _ in range(steps):
        entries = [
            (toks[b], poss[b], cache_sets[b]) for b in range(len(prompts))
        ]
        results = model.decode_batch(entries, **kw)
        for b, lg in enumerate(results):
            assert lg is not None
            all_logits[b].append(lg)
            toks[b], poss[b] = greedy(lg), poss[b] + 1
    return all_logits


def assert_bitwise(seq_logits, bat_logits, seq_caches, bat_caches):
    for a_series, b_series in zip(seq_logits, bat_logits):
        for a, b in zip(a_series, b_series):
            np.testing.assert_array_equal(a, b)
    for a_set, b_set in zip(seq_caches, bat_caches):
        for a, b in zip(a_set, b_set):
            assert len(a) == len(b)
            np.testing.assert_array_equal(a.keys, b.keys)
            np.testing.assert_array_equal(a.values, b.values)


class TestBitwiseParity:
    def test_contiguous_backend(self, model):
        seq = contiguous_caches(model, PROMPTS)
        bat = contiguous_caches(model, PROMPTS)
        a = run_sequential(model, PROMPTS, seq, steps=4)
        b = run_batched(model, PROMPTS, bat, steps=4)
        assert_bitwise(a, b, seq, bat)

    def test_paged_backend_with_recording(self, model):
        seq = paged_caches(model, PROMPTS)
        bat = paged_caches(model, PROMPTS)
        a = run_sequential(model, PROMPTS, seq, 4, record_attention=True)
        b = run_batched(model, PROMPTS, bat, 4, record_attention=True)
        assert_bitwise(a, b, seq, bat)
        for a_set, b_set in zip(seq, bat):
            for ca, cb in zip(a_set, b_set):
                np.testing.assert_array_equal(
                    ca.attention_mass(), cb.attention_mass()
                )

    def test_single_entry_matches_decode_step(self, model):
        seq = contiguous_caches(model, PROMPTS[:1])
        bat = contiguous_caches(model, PROMPTS[:1])
        a = run_sequential(model, PROMPTS[:1], seq, steps=3)
        b = run_batched(model, PROMPTS[:1], bat, steps=3)
        assert_bitwise(a, b, seq, bat)

    def test_single_entry_matches_decode_step_at_serving_length(self, model):
        prompts = [np.arange(2047, dtype=np.int64) % 64]  # first step: S_k = 2048
        seq = contiguous_caches(model, prompts)
        bat = contiguous_caches(model, prompts)
        a = run_sequential(model, prompts, seq, steps=3)
        b = run_batched(model, prompts, bat, steps=3)
        assert_bitwise(a, b, seq, bat)

    def test_mid_stream_eviction_parity(self, model):
        """H2O eviction fires between batched steps exactly as it does
        between sequential steps: same evictions, same tokens after."""
        policy = H2OPolicy(budget=10)
        seq = contiguous_caches(model, PROMPTS)
        bat = contiguous_caches(model, PROMPTS)
        a = run_sequential(model, PROMPTS, seq, 6, kv_policy=policy)
        b = run_batched(model, PROMPTS, bat, 6, kv_policy=policy)
        assert_bitwise(a, b, seq, bat)
        assert all(len(c) <= policy.budget + 1 for s in bat for c in s)

    def test_eviction_parity_on_paged_backend(self, model):
        policy = H2OPolicy(budget=8)
        seq = paged_caches(model, PROMPTS[:2])
        bat = paged_caches(model, PROMPTS[:2])
        a = run_sequential(model, PROMPTS[:2], seq, 5, kv_policy=policy)
        b = run_batched(model, PROMPTS[:2], bat, 5, kv_policy=policy)
        assert_bitwise(a, b, seq, bat)


class TestDispatchContract:
    def test_attend_batch_called_once_per_layer(self, model):
        cache_sets = contiguous_caches(model, PROMPTS)
        calls = []

        def counting(layer, items):
            calls.append((layer, len(items)))
            # Delegate to the default path by returning nothing: every
            # entry is dropped after layer 0.
            return {}

        entries = [
            (int(p[-1]), len(p), cache_sets[b])
            for b, p in enumerate(PROMPTS)
        ]
        results = model.decode_batch(entries, counting)
        assert results == [None] * len(PROMPTS)
        # Layers after the universal drop still dispatch (with no items):
        # the engine's dispatches == layers x steps identity rests on it.
        assert [layer for layer, _ in calls] == [0, 1]
        assert [n for _, n in calls] == [len(PROMPTS), 0]

    def test_gather_hook_overrides_kv_views(self, model):
        cache_sets = contiguous_caches(model, PROMPTS)
        seen = []

        def gather(layer, pairs):
            seen.append((layer, [b for b, _ in pairs]))
            return {b: (c.keys, c.values) for b, c in pairs}

        bat = run_batched(model, PROMPTS, cache_sets, 1, gather=gather)
        assert len(seen) == model.config.n_layers
        assert all(idxs == [0, 1, 2] for _, idxs in seen)
        # Identical views -> identical logits.
        ref = run_sequential(
            model, PROMPTS, contiguous_caches(model, PROMPTS), 1
        )
        for a_series, b_series in zip(ref, bat):
            np.testing.assert_array_equal(a_series[0], b_series[0])

    def test_validation(self, model):
        with pytest.raises(ModelError):
            model.decode_batch([])
        with pytest.raises(ModelError):
            model.decode_batch([(1, 0, [])])


class TestRollbackReplay:
    """The serving engine's recovery protocol: a failed append drops the
    entry, the caller truncates its caches back to the pre-step mark and
    replays the step per-request.  The replayed request must end up
    bitwise identical to one that never batched -- including the staged
    H2O attention-mass statistic (no double-counting)."""

    def _fail_append_once(self, cache, at_call=1):
        orig, state = cache.append, {"calls": 0}

        def boom(k, v, pos):
            state["calls"] += 1
            if state["calls"] == at_call:
                raise ModelError("injected append failure")
            return orig(k, v, pos)

        cache.append = boom
        return state

    def test_survivors_unaffected_by_dropped_entry(self, model):
        bat = contiguous_caches(model, PROMPTS)
        self._fail_append_once(bat[1][0])  # entry 1 dies at layer 0
        dropped = []
        entries = [
            (int(p[-1]), len(p), bat[b]) for b, p in enumerate(PROMPTS)
        ]
        results = model.decode_batch(
            entries, on_error=lambda b, layer, exc: dropped.append((b, layer))
        )
        assert dropped == [(1, 0)]
        assert results[1] is None
        ref_sets = contiguous_caches(model, PROMPTS)
        ref = run_sequential(model, PROMPTS, ref_sets, 1)
        np.testing.assert_array_equal(results[0], ref[0][0])
        np.testing.assert_array_equal(results[2], ref[2][0])

    def test_replay_after_rollback_no_double_counted_mass(self, model):
        """Fail entry 0's append at layer 1 (layer 0 already recorded its
        staged mass), roll back, replay sequentially: attention mass must
        match a never-batched run bitwise."""
        bat = paged_caches(model, PROMPTS[:2])
        # Layer-1 cache append #1 (first batched step) raises.
        self._fail_append_once(bat[0][1], at_call=1)
        marks = [len(c) for c in bat[0]]
        dropped = []
        entries = [
            (int(p[-1]), len(p), bat[b])
            for b, p in enumerate(PROMPTS[:2])
        ]
        results = model.decode_batch(
            entries,
            record_attention=True,
            on_error=lambda b, layer, exc: dropped.append((b, layer)),
        )
        assert dropped == [(0, 1)] and results[0] is None
        # Engine protocol: truncate the dropped entry back to its marks
        # (discarding layer 0's staged mass), then replay per-request.
        for cache, mark in zip(bat[0], marks):
            cache.truncate(mark)
        replayed = model.decode_step(
            int(PROMPTS[0][-1]), len(PROMPTS[0]), bat[0],
            record_attention=True,
        )
        ref_sets = paged_caches(model, PROMPTS[:2])
        ref = run_sequential(
            model, PROMPTS[:2], ref_sets, 1, record_attention=True
        )
        np.testing.assert_array_equal(replayed, ref[0][0])
        np.testing.assert_array_equal(results[1], ref[1][0])
        for got, want in zip(bat[0], ref_sets[0]):
            np.testing.assert_array_equal(
                got.attention_mass(), want.attention_mass()
            )
            np.testing.assert_array_equal(got.keys, want.keys)
