"""Tests for attention-pattern detectors and classification."""

import numpy as np
import pytest

from repro.analysis import (
    attention_entropy,
    classify_head,
    dense_probs,
    sink_mass,
    stripe_mass,
    window_mass,
)
from repro.errors import ConfigError, ShapeError


def banded(s, w):
    p = np.zeros((s, s))
    for i in range(s):
        lo = max(0, i - w + 1)
        p[i, lo : i + 1] = 1.0 / (i - lo + 1)
    return p


def striped(s, cols):
    p = np.full((s, s), 1e-9)
    for i in range(s):
        visible = [c for c in cols if c <= i] or [0]
        for c in visible:
            p[i, c] = 1.0 / len(visible)
        p[i, i + 1 :] = 0.0
        p[i] /= p[i].sum()
    return p


def sinky(s):
    return striped(s, [0])


def uniform(s):
    p = np.zeros((s, s))
    for i in range(s):
        p[i, : i + 1] = 1.0 / (i + 1)
    return p


class TestDetectors:
    def test_window_mass_on_banded(self):
        assert window_mass(banded(64, 8), 8) == pytest.approx(1.0)

    def test_window_mass_partial(self):
        assert window_mass(uniform(64), 8) < 0.5

    def test_stripe_mass_on_striped(self):
        p = striped(64, [3, 20])
        assert stripe_mass(p, 2) > 0.95

    def test_stripe_mass_excluding_window(self):
        # A pure band has no stripe mass outside the band.
        assert stripe_mass(banded(64, 8), 4, exclude_window=8) < 0.05

    def test_sink_mass(self):
        assert sink_mass(sinky(64), 4) > 0.95
        assert sink_mass(banded(64, 4), 4) < 0.3

    def test_entropy_ordering(self):
        assert attention_entropy(uniform(64)) > attention_entropy(sinky(64))

    def test_validation(self):
        with pytest.raises(ShapeError):
            window_mass(np.ones(4), 2)
        with pytest.raises(ConfigError):
            window_mass(np.ones((4, 4)), 0)
        with pytest.raises(ConfigError):
            stripe_mass(np.ones((4, 4)), 0)
        with pytest.raises(ConfigError):
            sink_mass(np.ones((4, 4)), 0)


class TestClassify:
    def test_window_label(self):
        assert classify_head(banded(128, 16), window=32).label == "window"

    def test_stripe_label(self):
        assert classify_head(striped(128, [5, 60]), window=8).label in (
            "stripe",
            "sink",
        )

    def test_sink_label(self):
        assert classify_head(sinky(128)).label == "sink"

    def test_dense_label(self):
        assert classify_head(uniform(128), window=8).label == "dense"

    def test_constructed_heads_classified(self, glm_mini, rng):
        from repro.tasks import make_needle_case

        case = make_needle_case(512, 0.5, rng=np.random.default_rng(2))
        probs = dense_probs(glm_mini, case.prompt)[0]
        # Layer 0: heads 2,3 local; 4 sink; 5 uniform.
        assert classify_head(probs[2]).label == "window"
        assert classify_head(probs[4]).label == "sink"
        assert classify_head(probs[5]).label == "dense"
