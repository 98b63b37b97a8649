"""Fused batched decode vs per-request ``decode_step``: bitwise parity.

``Transformer.decode_batch`` is the decode-serving quantum; its contract
is that survivor logits -- and therefore greedy tokens and cache contents
-- are *bitwise* identical to running ``decode_step`` on each request
alone, although each of its contractions is one GEMM over the step's rows
(``repro.model.layers.decode_gemm``).  These tests pin that contract on
both cache backends (the model is GQA: 4 query heads over 2 KV heads),
for batches wider than one GEMM row group, through mid-stream H2O
eviction (the baseline's own recording ``attend_batch``), and through the
exhaustion-rollback-replay path the serving engine uses.
"""

import numpy as np
import pytest

from repro.baselines.h2o import H2OPolicy, recording_attend
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


def new_mass(model, cache_sets, capacity=256):
    """H2O's per-request, per-layer attention mass arrays."""
    return [
        [np.zeros((model.config.n_kv_heads, capacity)) for _ in caches]
        for caches in cache_sets
    ]


def run_sequential(model, prompts, cache_sets, steps, kv_policy=None, mass=None):
    """Per-request decode_step baseline; returns per-request logit lists.
    With ``mass`` each step is a batch of one through H2O's recording
    ``attend_batch`` (as ``Transformer.generate`` runs it), and
    ``kv_policy`` evicts after every step."""
    all_logits = []
    for b, (p, caches) in enumerate(zip(prompts, cache_sets)):
        tok, pos = int(p[-1]), len(p)
        series = []
        for _ in range(steps):
            if mass is None:
                lg = model.decode_step(tok, pos, caches)
            else:
                lg = model.decode_batch(
                    [(tok, pos, caches)], recording_attend([mass[b]])
                )[0]
            if kv_policy is not None:
                kv_policy.evict(caches, mass[b])
            series.append(lg)
            tok, pos = greedy(lg), pos + 1
        all_logits.append(series)
    return all_logits


def run_batched(
    model, prompts, cache_sets, steps, kv_policy=None, mass=None, **kw
):
    toks = [int(p[-1]) for p in prompts]
    poss = [len(p) for p in prompts]
    all_logits = [[] for _ in prompts]
    if mass is not None:
        kw["attend_batch"] = recording_attend(mass)
    for _ in range(steps):
        entries = [
            (toks[b], poss[b], cache_sets[b]) for b in range(len(prompts))
        ]
        results = model.decode_batch(entries, **kw)
        if kv_policy is not None:
            for caches, m in zip(cache_sets, mass):
                kv_policy.evict(caches, m)
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
        seq_mass, bat_mass = new_mass(model, seq), new_mass(model, bat)
        a = run_sequential(model, PROMPTS, seq, 4, mass=seq_mass)
        b = run_batched(model, PROMPTS, bat, 4, mass=bat_mass)
        assert_bitwise(a, b, seq, bat)
        # Recording changes no logit...
        plain = paged_caches(model, PROMPTS)
        assert_bitwise(a, run_batched(model, PROMPTS, plain, 4), seq, plain)
        # ...and the mass is batch-invariant too.
        for a_set, b_set in zip(seq_mass, bat_mass):
            for ma, mb in zip(a_set, b_set):
                assert ma.any()
                np.testing.assert_array_equal(ma, mb)

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
        seq_mass, bat_mass = new_mass(model, seq), new_mass(model, bat)
        a = run_sequential(model, PROMPTS, seq, 6, policy, seq_mass)
        b = run_batched(model, PROMPTS, bat, 6, policy, bat_mass)
        assert_bitwise(a, b, seq, bat)
        assert all(len(c) <= policy.budget + 1 for s in bat for c in s)
        for a_set, b_set in zip(seq_mass, bat_mass):
            for ma, mb in zip(a_set, b_set):
                np.testing.assert_array_equal(ma, mb)


class TestWiderThanOneGroup:
    """13 entries exceed every decode GEMM's row group on glm-mini (q/k/v
    5, output projection 10, unembedding 6) and the tiny model's q/k/v
    (10): rows split over several small-kernel calls, one of them a
    remainder, and each entry still decodes as it does alone."""

    @staticmethod
    def _prompts(vocab):
        rng = np.random.default_rng(7)
        return [rng.integers(0, vocab, size=3 + 2 * b) for b in range(13)]

    @pytest.mark.parametrize("which", ["tiny", "glm-mini"])
    @pytest.mark.parametrize("backend", [contiguous_caches, paged_caches])
    def test_every_entry_matches_decode_step(self, model, glm_mini, which, backend):
        m = model if which == "tiny" else glm_mini
        prompts = self._prompts(m.config.vocab_size)
        seq = backend(m, prompts)
        bat = backend(m, prompts)
        a = run_sequential(m, prompts, seq, steps=2)
        b = run_batched(m, prompts, bat, steps=2)
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
    entry, the model truncates its caches back to their lengths before
    the step, and the caller replays the step per-request.  The replayed
    request must end up bitwise identical to one that never batched."""

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

    def test_replay_after_rollback_matches_a_never_batched_run(self, model):
        """Fail entry 0's append at layer 1 (layer 0 already attended),
        replay sequentially: logits and caches must match a never-batched
        run bitwise."""
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
            on_error=lambda b, layer, exc: dropped.append((b, layer)),
        )
        assert dropped == [(0, 1)] and results[0] is None
        # The model already rolled the dropped entry back.
        assert [len(c) for c in bat[0]] == marks
        replayed = model.decode_step(
            int(PROMPTS[0][-1]), len(PROMPTS[0]), bat[0]
        )
        ref_sets = paged_caches(model, PROMPTS[:2])
        ref = run_sequential(model, PROMPTS[:2], ref_sets, 1)
        np.testing.assert_array_equal(replayed, ref[0][0])
        np.testing.assert_array_equal(results[1], ref[1][0])
        for got, want in zip(bat[0], ref_sets[0]):
            np.testing.assert_array_equal(got.keys, want.keys)
            np.testing.assert_array_equal(got.values, want.values)
