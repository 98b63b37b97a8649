"""Tests for offline hyperparameter profiling (Table 1)."""

import numpy as np
import pytest

from repro.core import profile_hyperparameters
from repro.errors import ProfilingError
from repro.tasks import make_needle_case


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

