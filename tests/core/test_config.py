"""Tests for SampleAttentionConfig validation and helpers."""

import pytest

from repro.config import DEFAULT_CONFIG, SampleAttentionConfig
from repro.errors import ConfigError


class TestValidation:
    def test_default_is_paper_setting(self):
        assert DEFAULT_CONFIG.alpha == 0.95
        assert DEFAULT_CONFIG.r_row == 0.05
        assert DEFAULT_CONFIG.r_window == 0.08

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.1])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(alpha=alpha)

    @pytest.mark.parametrize("r_row", [0.0, 2.0])
    def test_rejects_bad_r_row(self, r_row):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(r_row=r_row)

    def test_zero_window_allowed(self):
        assert SampleAttentionConfig(r_window=0.0).r_window == 0.0

    @pytest.mark.parametrize("bs", [0, 3, 48, -8])
    def test_rejects_non_power_of_two_block(self, bs):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(block_size=bs)

    def test_rejects_negative_sinks(self):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(sink_tokens=-1)

    def test_rejects_negative_dense_rows(self):
        with pytest.raises(ConfigError):
            SampleAttentionConfig(dense_last_rows=-1)


class TestHelpers:
    def test_window_size_ceil(self):
        cfg = SampleAttentionConfig(r_window=0.08)
        assert cfg.window_size(100) == 8
        assert cfg.window_size(101) == 9

    def test_window_size_zero_len(self):
        assert SampleAttentionConfig().window_size(0) == 0

    def test_window_size_rejects_negative(self):
        with pytest.raises(ConfigError):
            SampleAttentionConfig().window_size(-1)

    def test_replace_returns_validated_copy(self):
        cfg = DEFAULT_CONFIG.replace(alpha=0.8)
        assert cfg.alpha == 0.8
        assert DEFAULT_CONFIG.alpha == 0.95
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.replace(alpha=2.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.alpha = 0.5  # type: ignore[misc]
