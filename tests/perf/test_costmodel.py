"""Tests for the kernel cost accounting and sparsity scaling models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.perf import (
    CHATGLM2_6B,
    INTERNLM2_7B,
    PAPER_TABLE5_KEPT,
    ArchSpec,
    SparsityScalingModel,
    attention_cost,
    linear_cost,
    sampling_cost,
)
from repro.perf.costmodel import SampleCostCurve


class TestArchSpec:
    def test_presets_valid(self):
        assert CHATGLM2_6B.n_layers == 28
        assert INTERNLM2_7B.n_layers == 32

    def test_rejects_bad_gqa(self):
        with pytest.raises(ConfigError):
            ArchSpec("x", 1, 5, 2, 64, 512, 1024, 1000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ArchSpec("x", 0, 4, 2, 64, 512, 1024, 1000)


class TestAttentionCost:
    def test_quadratic_in_s(self):
        c1 = attention_cost(CHATGLM2_6B, 1024)
        c2 = attention_cost(CHATGLM2_6B, 2048)
        assert c2.flops / c1.flops == pytest.approx(4.0, rel=0.01)

    def test_flops_formula(self):
        s = 1024
        c = attention_cost(CHATGLM2_6B, s)
        expected = 4 * 128 * (s * (s + 1) / 2) * 32
        assert c.flops == pytest.approx(expected)

    def test_kept_fraction_scales_linearly(self):
        full = attention_cost(CHATGLM2_6B, 4096, kept_fraction=1.0)
        half = attention_cost(CHATGLM2_6B, 4096, kept_fraction=0.5)
        assert half.flops == pytest.approx(full.flops / 2)

    def test_sdpa_moves_more_bytes(self):
        flash = attention_cost(CHATGLM2_6B, 8192, kernel="flash")
        sdpa = attention_cost(CHATGLM2_6B, 8192, kernel="sdpa")
        assert sdpa.bytes_moved > 2 * flash.bytes_moved
        assert sdpa.flops == pytest.approx(flash.flops)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            attention_cost(CHATGLM2_6B, 0)
        with pytest.raises(ConfigError):
            attention_cost(CHATGLM2_6B, 8, kept_fraction=1.5)
        with pytest.raises(ConfigError):
            attention_cost(CHATGLM2_6B, 8, kernel="magic")


class TestSamplingCost:
    def test_linear_in_r_row(self):
        a = sampling_cost(CHATGLM2_6B, 8192, 0.05)
        b = sampling_cost(CHATGLM2_6B, 8192, 0.10)
        assert b.flops == pytest.approx(2 * a.flops, rel=0.01)

    def test_small_relative_to_attention(self):
        samp = sampling_cost(CHATGLM2_6B, 32768, 0.05)
        attn = attention_cost(CHATGLM2_6B, 32768)
        assert samp.flops < 0.25 * attn.flops

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            sampling_cost(CHATGLM2_6B, 8, 0.0)


class TestLinearCost:
    def test_linear_in_s(self):
        c1 = linear_cost(CHATGLM2_6B, 1024)
        c2 = linear_cost(CHATGLM2_6B, 2048)
        assert c2.flops == pytest.approx(2 * c1.flops)

    def test_kernel_cost_addition(self):
        a = linear_cost(CHATGLM2_6B, 128)
        total = a + a
        assert total.flops == 2 * a.flops
        assert total.n_kernels == 2 * a.n_kernels


class TestSparsityScaling:
    def test_paper_fit_reproduces_anchor_points(self):
        model = SparsityScalingModel.from_paper()
        for alpha, pts in PAPER_TABLE5_KEPT.items():
            for s, kept in pts:
                assert model.kept_fraction(s, alpha) == pytest.approx(
                    kept, rel=0.25
                )

    def test_kept_decreases_with_length(self):
        model = SparsityScalingModel.from_paper()
        vals = [model.kept_fraction(s, 0.95) for s in (4096, 32768, 262144)]
        assert vals[0] > vals[1] > vals[2]

    def test_kept_increases_with_alpha(self):
        model = SparsityScalingModel.from_paper()
        assert model.kept_fraction(32768, 0.98) > model.kept_fraction(32768, 0.90)

    def test_interpolated_alpha_between_neighbours(self):
        model = SparsityScalingModel.from_paper()
        mid = model.kept_fraction(32768, 0.925)
        assert (
            model.kept_fraction(32768, 0.90)
            < mid
            < model.kept_fraction(32768, 0.95)
        )

    def test_fit_custom_measurements(self):
        model = SparsityScalingModel.fit(
            {0.95: [(1024, 0.5), (4096, 0.25), (16384, 0.125)]}
        )
        assert model.kept_fraction(2048, 0.95) == pytest.approx(0.354, rel=0.05)

    def test_fit_rejects_empty(self):
        with pytest.raises(ConfigError):
            SparsityScalingModel.fit({})

    def test_clipped_to_unit(self):
        model = SparsityScalingModel.from_paper()
        assert model.kept_fraction(2, 0.98) <= 1.0


class TestSampleCostCurve:
    def test_anchors_reproduced(self):
        curve = SampleCostCurve.from_paper()
        assert curve.cost_ratio(98304, 0.95) == pytest.approx(1 / 2.20, rel=0.01)
        assert curve.cost_ratio(98304, 0.80) == pytest.approx(1 / 5.12, rel=0.01)

    def test_monotone_decreasing_in_s(self):
        curve = SampleCostCurve.from_paper()
        vals = [curve.cost_ratio(s, 0.95) for s in (8192, 32768, 131072, 1048576)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_alpha_interpolation(self):
        curve = SampleCostCurve.from_paper()
        mid = curve.cost_ratio(98304, 0.9)
        assert curve.cost_ratio(98304, 0.80) < mid < curve.cost_ratio(98304, 0.95)

    def test_rejects_bad_args(self):
        curve = SampleCostCurve.from_paper()
        with pytest.raises(ConfigError):
            curve.cost_ratio(0, 0.95)
        with pytest.raises(ConfigError):
            curve.cost_ratio(1024, 0.0)
