"""Tests for the circuit compiler: do the constructed heads do their jobs?"""

import numpy as np
import pytest

from repro.analysis import dense_probs
from repro.attention import attention_probs
from repro.errors import ConfigError
from repro.model import (
    EmbeddingSpec,
    HeadSpec,
    KVGroupSpec,
    KVProgram,
    LayerSpec,
    ModelConfig,
    QueryProgram,
    RotaryTerm,
    Transformer,
    compile_model,
)
from repro.model.circuits import (
    _twist_matrices,
    local_pairs,
    prev_pairs,
    recency_pair,
    recency_pairs,
)
from repro.vocab import DEFAULT_VOCAB as V


def tiny_config(**kw) -> ModelConfig:
    defaults = dict(
        n_layers=1,
        n_heads=2,
        n_kv_heads=1,
        vocab_size=V.size,
        max_seq_len=4096,
        name="tiny",
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def single_layer_model(config, group: KVGroupSpec, **embed_kw) -> Transformer:
    spec = EmbeddingSpec(
        bos_id=V.BOS,
        salient_ids=V.salient_ids,
        orthonormal_ids=V.orthonormal_ids,
        **embed_kw,
    )
    weights = compile_model(config, [LayerSpec(groups=(group,))], spec)
    return Transformer(weights)


def head_probs(model, tokens, layer=0):
    return dense_probs(model, np.asarray(tokens, dtype=np.int64))[layer]


class TestTwist:
    def test_inner_products_preserved(self, rng):
        a, a_inv_t = _twist_matrices(rng, 16)
        x = rng.standard_normal((5, 16)).astype(np.float32)
        y = rng.standard_normal((5, 16)).astype(np.float32)
        lhs = (a @ x.T).T @ (a_inv_t @ y.T)
        np.testing.assert_allclose(lhs, x @ y.T, atol=1e-4)

    def test_vectors_not_parallel(self, rng):
        a, a_inv_t = _twist_matrices(rng, 32)
        e = rng.standard_normal(32).astype(np.float32)
        u, w = a @ e, a_inv_t @ e
        cos = (u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
        assert cos < 0.98  # same inner product, visibly different directions


class TestPairSelection:
    def test_prev_pairs_are_highest_freqs(self):
        cfg = tiny_config()
        assert prev_pairs(cfg, 3) == (0, 1, 2)

    def test_local_pairs_extend_with_window(self):
        cfg = tiny_config()
        assert len(local_pairs(cfg, 256)) >= len(local_pairs(cfg, 16))

    def test_recency_pair_monotone(self):
        cfg = tiny_config(max_seq_len=8192)
        from repro.model.rope import rope_frequencies

        pair = recency_pair(cfg)
        theta = rope_frequencies(cfg.rot_dim, cfg.rope_base)[pair]
        assert theta * cfg.max_seq_len <= 0.7 * np.pi + 1e-9

    def test_recency_pairs_fine_and_coarse(self):
        cfg = tiny_config(max_seq_len=16384)
        pairs = recency_pairs(cfg)
        assert 1 <= len(pairs) <= 2

    def test_local_pairs_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            local_pairs(tiny_config(), 0)


class TestPrevHead:
    def test_attends_previous_token(self, rng):
        cfg = tiny_config()
        pairs = prev_pairs(cfg, 4)
        group = KVGroupSpec(
            kv=KVProgram(kind="prev", rotary_pairs=pairs, v_source="tok"),
            heads=(
                HeadSpec(
                    query=QueryProgram(
                        kind="prev",
                        rotary=(RotaryTerm(pairs=pairs, peak_logit=60.0, offset=-1),),
                    ),
                    o_dest="prev",
                ),
                HeadSpec(query=QueryProgram(kind="uniform")),
            ),
        )
        model = single_layer_model(cfg, group)
        tokens = rng.choice(V.filler_ids, size=64)
        probs = head_probs(model, tokens)
        # Every row (past the first few) puts most mass on position i-1.
        arg = probs[0].argmax(axis=1)
        rows = np.arange(8, 64)
        assert np.mean(arg[rows] == rows - 1) > 0.9


class TestSinkAndSalience:
    def test_sink_head_concentrates_on_bos(self, rng):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="sink", bos_logit=12.0, v_source="tok"),
            heads=(
                HeadSpec(query=QueryProgram(kind="sink", bos_gate=1.0)),
                HeadSpec(query=QueryProgram(kind="uniform")),
            ),
        )
        model = single_layer_model(cfg, group)
        tokens = np.concatenate([[V.BOS], rng.choice(V.filler_ids, size=63)])
        probs = head_probs(model, tokens)
        assert probs[0, 32:, 0].min() > 0.9  # sink column dominates
        # The uniform head spreads: no column above 20%.
        assert probs[1, -1].max() < 0.2

    def test_salience_head_stripes_at_markers(self, rng):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="salience", salience_logit=12.0, v_source="tok"),
            heads=(
                HeadSpec(query=QueryProgram(kind="salience", salience_gate=1.0)),
                HeadSpec(query=QueryProgram(kind="uniform")),
            ),
        )
        model = single_layer_model(cfg, group)
        tokens = rng.choice(V.filler_ids, size=64)
        tokens[20] = V.FACT_SEP
        tokens[45] = V.QUERY
        probs = head_probs(model, tokens)
        late_rows = probs[0, 50:]
        assert late_rows[:, [20, 45]].sum(axis=1).min() > 0.9


class TestCompilerValidation:
    def test_rejects_wrong_group_count(self):
        cfg = tiny_config(n_kv_heads=1)
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        spec = EmbeddingSpec(bos_id=0)
        with pytest.raises(ConfigError):
            compile_model(
                cfg, [LayerSpec(groups=(group, group))], spec
            )

    def test_rejects_wrong_head_count(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),),  # needs 2
        )
        with pytest.raises(ConfigError):
            compile_model(cfg, [LayerSpec(groups=(group,))], EmbeddingSpec(bos_id=0))

    def test_rejects_content_match_without_kv_content(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x", content=None),
            heads=(
                HeadSpec(
                    query=QueryProgram(kind="ind", content="tok", content_logit=10.0)
                ),
                HeadSpec(query=QueryProgram(kind="u")),
            ),
        )
        with pytest.raises(ConfigError):
            compile_model(cfg, [LayerSpec(groups=(group,))], EmbeddingSpec(bos_id=0))

    def test_rejects_rotary_pair_not_carried(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x", rotary_pairs=(0,)),
            heads=(
                HeadSpec(
                    query=QueryProgram(
                        kind="loc",
                        rotary=(RotaryTerm(pairs=(0, 1), peak_logit=5.0),),
                    )
                ),
                HeadSpec(query=QueryProgram(kind="u")),
            ),
        )
        with pytest.raises(ConfigError):
            compile_model(cfg, [LayerSpec(groups=(group,))], EmbeddingSpec(bos_id=0))

    def test_rejects_wrong_layer_count(self):
        cfg = tiny_config(n_layers=2)
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        with pytest.raises(ConfigError):
            compile_model(cfg, [LayerSpec(groups=(group,))], EmbeddingSpec(bos_id=0))


class TestEmbeddings:
    def test_bos_tok_embedding_null(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        spec = EmbeddingSpec(bos_id=V.BOS)
        w = compile_model(cfg, [LayerSpec(groups=(group,))], spec)
        layout = cfg.layout
        np.testing.assert_array_equal(w.embed[V.BOS, layout.tok], 0.0)
        assert w.embed[V.BOS, layout.bos_dim] == 1.0

    def test_orthonormal_pool_exact(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        ids = tuple(range(2, 2 + cfg.d_embed))
        spec = EmbeddingSpec(bos_id=0, orthonormal_ids=ids)
        w = compile_model(cfg, [LayerSpec(groups=(group,))], spec)
        vecs = w.embed[list(ids)][:, cfg.layout.tok]
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(len(ids)), atol=1e-5)

    def test_suppressed_tokens_bias(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        spec = EmbeddingSpec(bos_id=0, suppressed_ids=(2, 3), suppression_bias=5.0)
        w = compile_model(cfg, [LayerSpec(groups=(group,))], spec)
        assert w.unembed_bias[2] == -5.0
        assert w.unembed_bias[4] == 0.0

    def test_const_carrier_everywhere(self):
        cfg = tiny_config()
        group = KVGroupSpec(
            kv=KVProgram(kind="x"),
            heads=(HeadSpec(query=QueryProgram(kind="u")),) * 2,
        )
        w = compile_model(cfg, [LayerSpec(groups=(group,))], EmbeddingSpec(bos_id=0))
        np.testing.assert_array_equal(w.embed[:, cfg.layout.const_dim], 1.0)
