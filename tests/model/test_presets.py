"""Tests for the constructed evaluation backbones."""

import numpy as np
import pytest

from repro.attention import flash_attention
from repro.backends import FullAttentionBackend
from repro.errors import ConfigError
from repro.model import build_model
from repro.model.presets import (
    MODEL_NAMES,
    calibrate_concentration_peak,
    calibrate_window_peak,
)
from repro.model.circuits import local_pairs, prev_pairs
from repro.vocab import DEFAULT_VOCAB as V


def recall_prompt(rng, s, depth, key, values):
    filler = V.sample_filler(rng, s)
    pos = int(depth * (s - 64))
    return np.concatenate(
        [[V.BOS], filler[:pos], [V.FACT_SEP, key, *values, V.FACT_SEP],
         filler[pos : s - 32], [V.QUERY, key]]
    ).astype(np.int64)


class TestCalibration:
    def test_concentration_reached(self, glm_mini):
        cfg = glm_mini.config
        pairs = prev_pairs(cfg, 4)
        peak = calibrate_concentration_peak(cfg, pairs, -1, 0.85)
        assert peak > 0
        # Re-evaluating the metric at the calibrated peak meets the target.
        from repro.model.presets import _normalized_kernel

        g = _normalized_kernel(cfg, pairs, -1)
        p = np.exp(peak * g - (peak * g).max())
        assert p[cfg.max_seq_len - 1] / p.sum() >= 0.85 - 1e-6

    def test_window_mass_reached(self, glm_mini):
        cfg = glm_mini.config
        pairs = local_pairs(cfg, 64)
        peak = calibrate_window_peak(cfg, pairs, 64, 0.95)
        from repro.model.presets import _normalized_kernel

        g = _normalized_kernel(cfg, pairs, 0)
        p = np.exp(peak * g - (peak * g).max())
        assert p[-64:].sum() / p.sum() >= 0.95 - 1e-6


class TestPresets:
    def test_model_names(self):
        assert set(MODEL_NAMES) == {"glm-mini", "intern-mini"}

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            build_model("gpt-5")

    def test_gqa_configured(self, glm_mini, intern_mini):
        for m in (glm_mini, intern_mini):
            assert m.config.n_rep == 2

    def test_models_differ(self, glm_mini, intern_mini):
        assert glm_mini.config.rope_base != intern_mini.config.rope_base
        assert not np.allclose(
            glm_mini.weights.layers[1].wq, intern_mini.weights.layers[1].wq
        )

    def test_build_cached(self):
        assert build_model("glm-mini") is build_model("glm-mini")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("depth", [0.1, 0.5, 0.9])
    def test_associative_recall(self, name, depth):
        """The headline capability: keyed retrieval from arbitrary depth."""
        model = build_model(name)
        rng = np.random.default_rng(hash((name, depth)) % 2**32)
        key = int(V.entity_ids[3])
        vals = [int(V.value_ids[10]), int(V.value_ids[70])]
        prompt = recall_prompt(rng, 768, depth, key, vals)
        res = model.generate(prompt, 2, backend=FullAttentionBackend())
        assert res.tokens == vals

    def test_recall_at_longer_context(self, glm_mini):
        rng = np.random.default_rng(9)
        key = int(V.entity_ids[7])
        vals = [int(V.value_ids[33]), int(V.value_ids[44])]
        prompt = recall_prompt(rng, 2048, 0.25, key, vals)
        res = glm_mini.generate(prompt, 2, backend=FullAttentionBackend())
        assert res.tokens == vals

    def test_latest_binding_wins(self, glm_mini):
        """Two bindings of the same key: the later one is retrieved."""
        rng = np.random.default_rng(11)
        s = 1024
        filler = V.sample_filler(rng, s)
        key = int(V.entity_ids[5])
        v_old, v_new = int(V.value_ids[8]), int(V.value_ids[9])
        prompt = np.concatenate(
            [[V.BOS], filler[:200], [V.FACT_SEP, key, v_old, V.FACT_SEP],
             filler[200:640], [V.FACT_SEP, key, v_new, V.FACT_SEP],
             filler[640 : s - 32], [V.QUERY, key]]
        ).astype(np.int64)
        res = glm_mini.generate(prompt, 1, backend=FullAttentionBackend())
        assert res.tokens == [v_new]

    def test_no_fact_does_not_hallucinate_values(self, glm_mini):
        """Without any binding the model must not emit a confident answer
        matching some other key's value (it parks on the null sink)."""
        rng = np.random.default_rng(13)
        s = 512
        filler = V.sample_filler(rng, s)
        key = int(V.entity_ids[2])
        prompt = np.concatenate(
            [[V.BOS], filler[: s - 16], [V.QUERY, key]]
        ).astype(np.int64)
        hidden, _ = glm_mini.prefill(prompt)
        logits = glm_mini.logits(hidden[-1:])[0]
        # The best value-pool logit stays small (no binding to copy).
        assert logits[V.value_ids].max() < 0.5


@pytest.mark.parametrize(
    "preset,silent", [("glm-mini", 3), ("intern-mini", 2)], ids=["glm-mini", "intern-mini"]
)
class TestSilentLayer:
    """glm-mini's last layer and intern-mini's layer 2 have an all-zero
    output projection, so that layer's attention never reaches the logits:
    not on a decode step, not on a prompt's final chunk.  Served results
    (perfbench's tokens and ``answer_score``) and Table 2's scores therefore
    cannot see a loss in that layer's attention.  This pins the property so
    a change to either preset revisits the caveat in the README and
    ROADMAP; no code may special-case a zero projection."""

    def test_only_that_output_projection_is_zero(self, request, preset, silent):
        model = request.getfixturevalue(preset.replace("-", "_"))
        zero = [not layer.wo.any() for layer in model.weights.layers]
        assert zero == [i == silent for i in range(model.config.n_layers)]

    def test_its_attention_never_reaches_the_logits(
        self, request, rng, preset, silent
    ):
        model = request.getfixturevalue(preset.replace("-", "_"))
        cfg = model.config
        tokens = V.sample_filler(rng, 96).astype(np.int64)
        positions = np.arange(tokens.size, dtype=np.int64)
        noise = rng.standard_normal(
            (cfg.n_heads, tokens.size, cfg.d_head)
        ).astype(np.float32)

        def run(layer, output):
            def attend(i, q, keys, values, scale):
                if i == layer:
                    return output(q)
                return flash_attention(q, keys, values, scale=scale)

            caches = model.new_caches(capacity=tokens.size)
            hidden = model.prefill_chunk(tokens, positions, caches, attend)
            return model.logits(hidden)

        def noisy(q):
            return noise[:, -q.shape[1]:]

        assert np.array_equal(run(silent, np.zeros_like), run(silent, noisy))
        # The same swap in any other layer reaches the logits.
        for layer in set(range(cfg.n_layers)) - {silent}:
            assert not np.array_equal(
                run(layer, np.zeros_like), run(layer, noisy)
            )
