"""Tests for request telemetry and the engine metrics registry."""

import json

import pytest

from repro.errors import ConfigError
from repro.serving import MetricsRegistry, RequestTelemetry


class TestRequestTelemetry:
    def test_timeline_properties(self):
        tm = RequestTelemetry(request_id=0, arrival=2.0, prompt_len=4096)
        assert tm.ttft is None and tm.queue_delay is None
        tm.first_chunk_start = 2.5
        tm.first_token = 3.25
        assert tm.queue_delay == pytest.approx(0.5)
        assert tm.ttft == pytest.approx(1.25)

    def test_chunk_and_kv_stats(self):
        tm = RequestTelemetry(request_id=0, arrival=0.0, prompt_len=1024)
        assert tm.n_chunks == 0 and tm.mean_kept_kv == 0.0
        tm.chunk_seconds += [0.1, 0.3]
        tm.kept_kv_ratios += [0.08, 0.12]
        assert tm.n_chunks == 2
        assert tm.mean_kept_kv == pytest.approx(0.10)

    def test_as_dict_roundtrips_json(self):
        tm = RequestTelemetry(request_id=3, arrival=1.0, prompt_len=2048)
        rec = json.loads(json.dumps(tm.as_dict()))
        assert rec["request_id"] == 3
        assert rec["outcome"] == "queued"
        assert rec["ttft_s"] is None


class TestMetricsRegistry:
    def test_counters_and_series(self):
        reg = MetricsRegistry()
        assert reg.counter("nope") == 0.0
        reg.inc("admitted")
        reg.inc("admitted", 2.0)
        assert reg.counter("admitted") == 3.0
        reg.observe("chunk_seconds", 0.25)
        reg.observe("chunk_seconds", 0.75)
        assert reg.series("chunk_seconds") == [0.25, 0.75]
        assert reg.series("missing") == []

    def test_request_records_and_outcomes(self):
        reg = MetricsRegistry()
        a = reg.new_request(0, 0.0, 1024)
        b = reg.new_request(1, 0.5, 2048)
        a.outcome = "completed"
        b.outcome = "rejected"
        assert reg.completed == [a]
        assert reg.by_outcome("rejected") == [b]
        with pytest.raises(ConfigError):
            reg.by_outcome("vanished")

    def test_plan_cache_hit_rate_zero_safe(self):
        reg = MetricsRegistry()
        assert reg.plan_cache_hit_rate() == 0.0
        reg.inc("plan_cache_hits", 3)
        reg.inc("plan_cache_misses", 1)
        assert reg.plan_cache_hit_rate() == pytest.approx(0.75)

    def _populated(self):
        reg = MetricsRegistry()
        tm = reg.new_request(0, 0.0, 4096)
        tm.outcome = "completed"
        tm.first_chunk_start = 0.0
        tm.first_token = 0.5
        tm.finish = 0.6
        tm.chunk_seconds += [0.2, 0.3]
        tm.kept_kv_ratios.append(0.1)
        reg.inc("plan_cache_hits", 1)
        reg.inc("plan_cache_misses", 1)
        return reg

    def test_summary_keys_and_values(self):
        summ = self._populated().summary()
        assert summ["n_requests"] == 1 and summ["n_completed"] == 1
        assert summ["mean_ttft_s"] == pytest.approx(0.5)
        assert summ["makespan_s"] == pytest.approx(0.6)
        assert summ["mean_chunk_seconds"] == pytest.approx(0.25)
        assert summ["plan_cache_hit_rate"] == pytest.approx(0.5)
        assert summ["mean_kept_kv_ratio"] == pytest.approx(0.1)

    def test_empty_summary_is_zero_not_nan(self):
        summ = MetricsRegistry().summary()
        assert summ["n_requests"] == 0
        assert summ["mean_ttft_s"] == 0.0
        assert summ["makespan_s"] == 0.0

    def test_markdown_export_has_summary_and_table(self):
        md = self._populated().to_markdown()
        assert "### Serving telemetry" in md
        assert "**plan_cache_hit_rate**" in md
        assert "| request_id |" in md
