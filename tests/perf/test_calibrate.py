"""Tests for substrate-measured performance calibration."""

import numpy as np
import pytest

from repro.analysis import layer_qkv
from repro.backends import FullAttentionBackend
from repro.config import SampleAttentionConfig
from repro.core import plan_sample_attention
from repro.model import ModelConfig, Transformer, random_weights
from repro.perf import (
    CHATGLM2_6B,
    fit_sparsity_from_measurements,
    measured_speedup,
)
from repro.tasks import make_needle_case


def _plan_densities(qk, alpha):
    return [
        plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=alpha), scale=scale
        ).element_density()
        for q, k, scale in qk
    ]


def measured_densities(model, lengths, alphas, *, seed=0):
    """``{alpha: [(length, mean per-layer plan density), ...]}`` on needle
    prompts: the measurements :func:`fit_sparsity_from_measurements` fits."""
    out = {a: [] for a in alphas}
    for length in lengths:
        case = make_needle_case(length, 0.5, rng=np.random.default_rng(seed))
        qk = [(q, k, scale) for q, k, _, scale in layer_qkv(model, case.prompt)]
        for alpha in alphas:
            out[alpha].append((length, float(np.mean(_plan_densities(qk, alpha)))))
    return out


class _QKRecorder(FullAttentionBackend):
    def __init__(self):
        super().__init__()
        self.qk = []

    def prefill(self, q, k, v, *, scale=None, layer=0):
        self.qk.append((q, k, scale))
        return super().prefill(q, k, v, scale=scale, layer=layer)


class TestMeasuresTheForwardPass:
    def test_densities_are_those_of_the_attended_qk(self):
        """Each layer's plan is built on the q/k that layer attends with in
        ``Transformer.prefill`` (:func:`layer_qkv` captures them): after
        the RMS norm, and with every earlier layer's MLP in the residual
        stream."""
        config = ModelConfig(norm="rms", mlp_ratio=1.0, name="random-rms-mlp")
        model = Transformer(random_weights(config, seed=0, scale=0.05))
        alphas = (0.80, 0.95)
        meas = measured_densities(model, (512,), alphas, seed=3)
        case = make_needle_case(512, 0.5, rng=np.random.default_rng(3))
        recorder = _QKRecorder()
        model.prefill(case.prompt, recorder)
        assert len(recorder.qk) == config.n_layers
        for alpha in alphas:
            densities = _plan_densities(recorder.qk, alpha)
            assert meas[alpha] == [(512, float(np.mean(densities)))]


class TestFitAndPredict:
    def test_fit_roundtrip(self, glm_mini):
        meas = measured_densities(glm_mini, (512, 1024, 2048), (0.95,))
        model = fit_sparsity_from_measurements(meas)
        measured = dict(meas[0.95])
        pred = model.kept_fraction(1024, 0.95)
        assert pred == pytest.approx(measured[1024], rel=0.2)

    def test_measured_speedup_consistent_with_paper_band(self, glm_mini):
        """Billing the substrate's measured ~0.3 density through the
        roofline lands near the paper's 2.2x at 96K -- an independent
        cross-check of the whole pipeline."""
        meas = measured_densities(glm_mini, (1024,), (0.95,))
        density = meas[0.95][0][1]
        speedup = measured_speedup(CHATGLM2_6B, density, 98304)
        assert 1.5 < speedup < 3.5

    def test_measured_speedup_monotone_in_density(self):
        fast = measured_speedup(CHATGLM2_6B, 0.1, 98304)
        slow = measured_speedup(CHATGLM2_6B, 0.8, 98304)
        assert fast > slow > 0.5
