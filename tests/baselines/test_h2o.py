"""Tests for the H2O heavy-hitter KV-eviction policy and the attention
mass it keeps for itself."""

import numpy as np
import pytest

from repro.attention.packed import PackedDecodeItem, packed_decode_attention
from repro.baselines import H2OPolicy
from repro.baselines.h2o import accumulate_attention, recording_attend
from repro.errors import ConfigError, ModelError


class TestH2OPolicy:
    def test_within_budget_keeps_all(self):
        pol = H2OPolicy(budget=10)
        keeps = pol.select(np.random.default_rng(0).random((2, 8)))
        for idx in keeps:
            np.testing.assert_array_equal(idx, np.arange(8))

    def test_budget_respected(self):
        pol = H2OPolicy(budget=6)
        keeps = pol.select(np.random.default_rng(0).random((3, 20)))
        assert all(len(ix) == 6 for ix in keeps)

    def test_recents_always_kept(self):
        pol = H2OPolicy(budget=6, recent_fraction=0.5)
        keeps = pol.select(np.zeros((1, 20)))
        assert set(range(17, 20)) <= set(keeps[0].tolist())

    def test_heavy_hitters_kept(self):
        acc = np.zeros((1, 20))
        acc[0, 2] = 100.0
        acc[0, 7] = 50.0
        pol = H2OPolicy(budget=6, recent_fraction=0.5)
        keeps = pol.select(acc)
        assert 2 in keeps[0] and 7 in keeps[0]

    def test_recent_fraction_extremes(self):
        acc = np.random.default_rng(1).random((1, 30))
        all_recent = H2OPolicy(budget=8, recent_fraction=1.0).select(acc)
        np.testing.assert_array_equal(all_recent[0], np.arange(22, 30))
        all_heavy = H2OPolicy(budget=8, recent_fraction=0.0).select(acc)
        np.testing.assert_array_equal(
            np.sort(all_heavy[0]), np.sort(np.argsort(-acc[0])[:8])
        )

    def test_per_head_independence(self):
        acc = np.zeros((2, 20))
        acc[0, 1] = 9.0
        acc[1, 4] = 9.0
        keeps = H2OPolicy(budget=4, recent_fraction=0.5).select(acc)
        assert 1 in keeps[0] and 4 in keeps[1]

    def test_indices_sorted(self):
        keeps = H2OPolicy(budget=5).select(np.random.default_rng(2).random((2, 40)))
        for ix in keeps:
            assert np.all(np.diff(ix) > 0)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            H2OPolicy(budget=0)
        with pytest.raises(ConfigError):
            H2OPolicy(budget=4, recent_fraction=1.5)

    def test_rejects_bad_scores_rank(self):
        with pytest.raises(ConfigError):
            H2OPolicy(budget=4).select(np.zeros(10))


class TestAttentionMass:
    def test_accumulates_grouped(self):
        acc = np.zeros((2, 8))
        probs = np.zeros((4, 1, 3))  # 4 query heads -> 2 KV heads
        probs[0, 0] = [1.0, 0.0, 0.0]
        probs[1, 0] = [0.0, 1.0, 0.0]
        probs[2, 0] = [0.0, 0.0, 1.0]
        probs[3, 0] = [0.0, 0.0, 1.0]
        accumulate_attention(acc, probs, 3)
        np.testing.assert_allclose(acc[0, :3], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(acc[1, :3], [0.0, 0.0, 2.0])
        assert not acc[:, 3:].any()

    def test_rejects_wrong_length(self):
        with pytest.raises(ModelError):
            accumulate_attention(np.zeros((1, 8)), np.zeros((1, 1, 4)), 3)

    def test_recording_attend_is_the_default_dispatch_plus_mass(self):
        rng = np.random.default_rng(3)
        items = {
            b: (
                rng.standard_normal((4, 1, 8)).astype(np.float32),
                rng.standard_normal((2, n, 8)).astype(np.float32),
                rng.standard_normal((2, n, 8)).astype(np.float32),
                0.25,
            )
            for b, n in ((0, 5), (2, 9))
        }
        mass = {b: [np.zeros((2, 16)) for _ in range(2)] for b in items}
        outs = recording_attend(mass)(1, items)
        for b, (q, k, v, s) in items.items():
            res = packed_decode_attention(
                [PackedDecodeItem(q=q, k=k, v=v, scale=s)], return_probs=True
            )
            np.testing.assert_array_equal(outs[b], res.outputs[0])
            want = np.zeros((2, 16))
            accumulate_attention(want, res.probs[0], k.shape[1])
            np.testing.assert_array_equal(mass[b][1], want)
            assert not mass[b][0].any()  # only the dispatched layer
        assert recording_attend(mass)(0, {}) == {}

