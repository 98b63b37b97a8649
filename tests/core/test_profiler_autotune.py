"""Tests for offline profiling (Table 1) and runtime autotuning (App. A.6)."""

import json

import numpy as np
import pytest

from repro import SampleAttentionConfig
from repro.core import (
    AutotunedSampleAttentionBackend,
    KernelTuner,
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
        x = glm_mini.embed(case.prompt)
        q, k, _ = glm_mini.layers[1].project_qkv(x, np.arange(case.prompt.size))
        scale = 1.0 / np.sqrt(glm_mini.config.d_head)

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


class TestKernelTuner:
    def test_shape_class_buckets(self):
        t = KernelTuner()
        cls = t.shape_class(1024, 4096, 0.37, 4)
        assert cls == (11, 13, 3, 4)
        # Nearby shapes land in the same bucket; order-of-magnitude
        # changes land in different ones.
        assert t.shape_class(1500, 4096, 0.39, 4) == cls
        assert t.shape_class(1024, 8192, 0.37, 4) != cls
        assert t.shape_class(1024, 4096, 0.99, 4)[2] == 9
        assert t.shape_class(1024, 4096, 0.0, 4)[2] == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            KernelTuner(ema=0.0)
        with pytest.raises(ConfigError):
            KernelTuner(max_classes=0)
        with pytest.raises(ConfigError):
            KernelTuner(thread_candidates=(0, 1))

    def test_single_candidate_short_circuits(self):
        t = KernelTuner(thread_candidates=(1,))
        cls = t.shape_class(256, 1024, 0.5, 2)
        d = t.choose(cls)
        assert d.num_threads == 1
        assert d.source == "default"

    def test_explore_then_exploit(self):
        t = KernelTuner(thread_candidates=(1, 2, 4))
        cls = t.shape_class(256, 1024, 0.5, 2)
        explored = []
        for _ in range(3):
            d = t.choose(cls)
            assert d.source == "explore"
            explored.append(d.num_threads)
            # Pretend 2 threads is fastest per row.
            seconds = {1: 0.3, 2: 0.1, 4: 0.4}[d.num_threads]
            t.observe(cls, d.num_threads, seconds, rows=256)
        assert explored == [1, 2, 4]
        d = t.choose(cls)
        assert d.source == "online"
        assert d.num_threads == 2

    def test_observe_ema_converges(self):
        t = KernelTuner(thread_candidates=(1, 2), ema=0.5)
        cls = t.shape_class(64, 256, 0.5, 1)
        t.observe(cls, 1, 0.4, rows=64)
        t.observe(cls, 1, 0.2, rows=64)
        per_row = t._observed[cls][1]
        assert per_row == pytest.approx(0.5 * (0.4 / 64) + 0.5 * (0.2 / 64))
        # Bad observations are ignored.
        t.observe(cls, 1, -1.0, rows=64)
        t.observe(cls, 1, 0.1, rows=0)
        assert t.observations == 2

    def test_observed_classes_are_lru_bounded(self):
        t = KernelTuner(thread_candidates=(1, 2), max_classes=2)
        for rows in (64, 128, 256):
            t.observe(t.shape_class(rows, 512, 0.5, 1), 1, 0.1, rows=rows)
        assert len(t._observed) == 2
        assert t.shape_class(64, 512, 0.5, 1) not in t._observed

    def test_seeds_from_bench_file(self, tmp_path):
        bench = tmp_path / "BENCH_kernel.json"
        bench.write_text(json.dumps({
            "cases": [
                {"seq_len": 4096, "block_size": 32,
                 "seconds": {"fast": 0.1, "reference": 0.5}},
                {"seq_len": 16384, "block_size": 128,
                 "seconds": {"fast": 0.9, "reference": 0.4}},
            ],
        }))
        t = KernelTuner(bench_path=bench, thread_candidates=(1,))
        d = t.choose(t.shape_class(512, 4096, 0.5, 1))
        assert (d.block_size, d.kernel_mode, d.source) == (32, "fast", "seed")
        d = t.choose(t.shape_class(512, 16384, 0.5, 1))
        assert (d.block_size, d.kernel_mode) == (128, "reference")
        # Unseeded bucket falls back to defaults.
        d = t.choose(t.shape_class(512, 300, 0.5, 1))
        assert (d.block_size, d.source) == (t.default_block_size, "default")

    def test_missing_bench_is_not_an_error(self, tmp_path):
        t = KernelTuner(bench_path=tmp_path / "nope.json")
        assert t._seeded == {}

    def test_table_reports_observed_classes(self):
        t = KernelTuner(thread_candidates=(1,))
        cls = t.shape_class(256, 1024, 0.5, 2)
        t.observe(cls, 1, 0.2, rows=256)
        rows = t.table()
        assert len(rows) == 1
        assert rows[0]["class"]["head_groups"] == 2
        assert rows[0]["num_threads"] == 1
        assert "1" in rows[0]["ema_seconds_per_row"]
