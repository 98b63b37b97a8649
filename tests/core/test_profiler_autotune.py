"""Tests for offline profiling (Table 1) and runtime autotuning (App. A.6)."""

import numpy as np
import pytest

from repro.analysis import layer_qkv
from repro.core import (
    AutotunedSampleAttentionBackend,
    profile_hyperparameters,
)
from repro.errors import ConfigError, ProfilingError
from repro.tasks import make_needle_case
from tests.conftest import random_qkv


@pytest.fixture(scope="module")
def calibration_cases():
    return [
        make_needle_case(512, d, rng=np.random.default_rng(i))
        for i, d in enumerate((0.2, 0.7))
    ]


class TestProfiler:
    def test_selects_near_lossless_config(self, glm_mini, calibration_cases):
        report = profile_hyperparameters(
            glm_mini,
            calibration_cases,
            alphas=(0.80, 0.95),
            r_rows=(0.05,),
            r_windows=(0.08,),
        )
        assert report.config.alpha in (0.80, 0.95)
        assert report.config.r_row == 0.05
        assert report.full_score > 0
        # Every trial recorded with ratio and density.
        names = [t[0] for t in report.trials]
        assert names.count("alpha") == 2

    def test_prefers_cheaper_setting_when_both_lossless(
        self, glm_mini, calibration_cases
    ):
        report = profile_hyperparameters(
            glm_mini,
            calibration_cases,
            alphas=(0.90, 0.98),
            r_rows=(0.05,),
            r_windows=(0.08,),
        )
        trial_map = {
            (n, v): (ratio, dens) for n, v, ratio, dens in report.trials
        }
        if all(trial_map[("alpha", a)][0] >= 0.99 for a in (0.90, 0.98)):
            # Both lossless: the cheaper (lower-density) one must win.
            dens = {a: trial_map[("alpha", a)][1] for a in (0.90, 0.98)}
            assert report.config.alpha == min(dens, key=dens.get)

    def test_rejects_empty_calibration(self, glm_mini):
        with pytest.raises(ProfilingError):
            profile_hyperparameters(glm_mini, [])

    def test_raises_when_target_unreachable(self, glm_mini, calibration_cases):
        with pytest.raises(ProfilingError):
            profile_hyperparameters(
                glm_mini,
                calibration_cases,
                alphas=(0.95,),
                r_rows=(0.05,),
                r_windows=(0.08,),
                target_ratio=1.5,  # impossible
            )

    def test_summary_rows(self, glm_mini, calibration_cases):
        report = profile_hyperparameters(
            glm_mini,
            calibration_cases,
            alphas=(0.95,),
            r_rows=(0.05,),
            r_windows=(0.08,),
        )
        rows = report.summary_rows()
        assert all(len(r) == 4 for r in rows)


class TestAutotune:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AutotunedSampleAttentionBackend(density_budget=0.0)
        with pytest.raises(ConfigError):
            AutotunedSampleAttentionBackend(alpha_min=0.9, alpha_max=0.5)

    def test_tuned_alpha_respects_budget(self, glm_mini):
        case = make_needle_case(768, 0.5, rng=np.random.default_rng(3))
        q, k, _, scale = layer_qkv(glm_mini, case.prompt)[1]

        tight = AutotunedSampleAttentionBackend(density_budget=0.25)
        loose = AutotunedSampleAttentionBackend(density_budget=0.9)
        a_tight = tight.tune(q, k, scale=scale)
        a_loose = loose.tune(q, k, scale=scale)
        assert a_tight <= a_loose
        assert a_loose == loose.alpha_max  # generous budget -> max accuracy

    def test_floor_used_when_budget_unreachable(self, rng):
        q, k, _ = random_qkv(rng, h=2, s=128, d=16)
        be = AutotunedSampleAttentionBackend(density_budget=0.01)
        assert be.tune(q, k) == be.alpha_min

    def test_prefill_records_tuned_alpha(self, glm_mini):
        case = make_needle_case(640, 0.5, rng=np.random.default_rng(4))
        res = glm_mini.generate(
            case.prompt,
            len(case.answer),
            backend=AutotunedSampleAttentionBackend(density_budget=0.5),
        )
        stats = res.backend_stats[0]
        assert "tuned_alpha" in stats
        assert 0.5 <= stats["tuned_alpha"] <= 0.99

    def test_autotuned_retrieval_accuracy(self, glm_mini):
        """With a reasonable budget the autotuner stays near-lossless."""
        case = make_needle_case(768, 0.4, rng=np.random.default_rng(5))
        res = glm_mini.generate(
            case.prompt,
            len(case.answer),
            backend=AutotunedSampleAttentionBackend(density_budget=0.5),
        )
        assert res.tokens == list(case.answer)


class TestAlphaMemo:
    def test_repeated_shape_bisects_once(self, rng):
        q, k, _ = random_qkv(rng, h=2, s=128, d=16)
        be = AutotunedSampleAttentionBackend(density_budget=0.4, memo_size=8)
        a1 = be._tuned_alpha_for(q, k, None)
        a2 = be._tuned_alpha_for(q, k, None)
        assert a1 == a2
        assert be.tune_calls == 1

    def test_memo_disabled_retunes_every_call(self, rng):
        q, k, _ = random_qkv(rng, h=2, s=128, d=16)
        be = AutotunedSampleAttentionBackend(density_budget=0.4, memo_size=0)
        be._tuned_alpha_for(q, k, None)
        be._tuned_alpha_for(q, k, None)
        assert be.tune_calls == 2

    def test_memo_is_bounded_lru(self, rng):
        be = AutotunedSampleAttentionBackend(density_budget=0.4, memo_size=2)
        shapes = [96, 128, 160]
        for s in shapes:
            q, k, _ = random_qkv(rng, h=2, s=s, d=16)
            be._tuned_alpha_for(q, k, None)
        assert be.tune_calls == 3
        assert len(be._memo) == 2
        # Oldest shape (96) was evicted: re-tuning it misses the memo.
        q, k, _ = random_qkv(rng, h=2, s=96, d=16)
        be._tuned_alpha_for(q, k, None)
        assert be.tune_calls == 4

    def test_negative_memo_size_rejected(self):
        with pytest.raises(ConfigError):
            AutotunedSampleAttentionBackend(memo_size=-1)

