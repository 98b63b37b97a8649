"""Tests for the attention-backend interface layer."""

import numpy as np
import pytest

from repro import pool
from repro.attention import dense_attention
from repro.backends import (
    ElementMaskedAttentionBackend,
    FullAttentionBackend,
    MaskedAttentionBackend,
    SampleAttentionBackend,
)
from repro.attention.masks import causal_block_mask
from tests.conftest import own_workspace, random_qkv


class _CausalMaskedBackend(MaskedAttentionBackend):
    name = "causal_masked"

    def build_mask(self, q, k, *, layer=0):
        return causal_block_mask(q.shape[0], q.shape[1], k.shape[1], 32)


class _EyeElementBackend(ElementMaskedAttentionBackend):
    name = "eye"

    def build_element_mask(self, q, k, *, layer=0):
        s_q, s_k = q.shape[1], k.shape[1]
        m = np.zeros((q.shape[0], s_q, s_k), dtype=bool)
        idx = np.arange(s_q)
        m[:, idx, idx + (s_k - s_q)] = True
        return m


class TestFullBackend:
    def test_matches_dense(self, rng):
        q, k, v = random_qkv(rng, h=2, s=96, d=8)
        out = FullAttentionBackend().prefill(q, k, v)
        np.testing.assert_allclose(out, dense_attention(q, k, v).output, atol=2e-5)

    def test_stats_density_one(self, rng):
        q, k, v = random_qkv(rng, h=1, s=32, d=8)
        be = FullAttentionBackend()
        be.prefill(q, k, v)
        assert be.last_stats() == {"density": 1.0}

    def test_stats_fresh_per_call(self, rng):
        q, k, v = random_qkv(rng, h=1, s=32, d=8)
        be = FullAttentionBackend()
        be.prefill(q, k, v)
        s1 = be.last_stats()
        s1["density"] = 99.0  # caller mutation must not leak back
        assert be.last_stats()["density"] == 1.0


class TestMaskedBase:
    def test_mask_policy_executed(self, rng):
        q, k, v = random_qkv(rng, h=2, s=64, d=8)
        be = _CausalMaskedBackend()
        out = be.prefill(q, k, v)
        np.testing.assert_allclose(out, dense_attention(q, k, v).output, atol=2e-5)
        assert be.last_stats()["density"] == pytest.approx(1.0)


class TestElementMaskedBase:
    def test_diagonal_only_returns_values(self, rng):
        q, k, v = random_qkv(rng, h=2, s=48, d=8)
        be = _EyeElementBackend()
        out = be.prefill(q, k, v)
        np.testing.assert_allclose(out, v, atol=1e-5)

    def test_density_is_elementwise(self, rng):
        q, k, v = random_qkv(rng, h=1, s=64, d=8)
        be = _EyeElementBackend()
        be.prefill(q, k, v)
        causal_elements = 64 * 65 / 2
        assert be.last_stats()["density"] == pytest.approx(64 / causal_elements)


class TestSampleBackendStats:
    def test_plan_summary_exposed(self, rng):
        q, k, v = random_qkv(rng, h=2, s=128, d=8)
        be = SampleAttentionBackend()
        be.prefill(q, k, v)
        stats = be.last_stats()
        for key in ("density", "mean_kv_ratio", "window", "n_sampled_rows"):
            assert key in stats
        assert stats["plan_summary"]["alpha"] == 0.95


class TestWarmBackendsAllocateNothing:
    """Backends hold no scratch: their kernel calls run on the calling
    thread's workspace, which a first layer call warms for every later
    call of the same geometry."""

    @pytest.mark.parametrize(
        "backend", [FullAttentionBackend, _CausalMaskedBackend],
        ids=["full", "masked"],
    )
    def test_warm_calls_allocate_nothing(self, rng, backend):
        q, k, v = random_qkv(rng, h=4, s=200, d=16, h_kv=2)
        with own_workspace() as ws, pool._forced_workers(1):
            first = backend().prefill(q, k, v)
            warm = ws.allocations
            for layer in range(3):
                out = backend().prefill(q, k, v, layer=layer)
                assert np.array_equal(out, first)
        assert warm > 0 and ws.allocations == warm
