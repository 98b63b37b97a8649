"""Engine stage profiling and the packed block-sparse execution path."""

import time

import pytest

from repro.errors import ConfigError
from repro.serving.engine import ServingEngine
from repro.serving.simulator import Request


def _requests(n=2, prompt_len=1024, decode=4):
    return [
        Request(
            request_id=i, arrival=0.0, prompt_len=prompt_len,
            decode_tokens=decode,
        )
        for i in range(n)
    ]


class TestStageTelemetry:
    def test_sample_run_reports_stage_breakdown(self, glm_mini):
        engine = ServingEngine(
            glm_mini, method="sample", billing="roofline", length_scale=4
        )
        res = engine.run(_requests())
        stages = res.stages["stages"]
        assert {"sample", "filter", "attend"} <= set(stages)
        assert all(rec["seconds"] >= 0.0 for rec in stages.values())
        assert res.stages["total_seconds"] == pytest.approx(
            sum(rec["seconds"] for rec in stages.values())
        )

    def test_packed_decode_stages_fit_in_the_wall_clock(self, glm_mini):
        """``decode`` wraps the loop whose dispatches open ``attend``;
        stage time is exclusive, so the total cannot exceed the run."""
        engine = ServingEngine(
            glm_mini, method="sample", batching="packed",
            billing="roofline", length_scale=4,
        )
        t0 = time.perf_counter()
        res = engine.run(_requests(n=4, prompt_len=256, decode=96))
        wall = time.perf_counter() - t0
        stages = res.stages["stages"]
        assert stages["decode"]["calls"] >= 1 and stages["attend"]["calls"] >= 1
        assert res.stages["total_seconds"] <= wall
        assert sum(rec["share"] for rec in stages.values()) == pytest.approx(1.0)

    def test_flash_run_reports_dense_stage(self, glm_mini):
        engine = ServingEngine(
            glm_mini, method="flash", billing="roofline", length_scale=4
        )
        res = engine.run(_requests())
        assert "dense" in res.stages["stages"]
        assert "sample" not in res.stages["stages"]

    def test_profiler_resets_between_runs(self, glm_mini):
        engine = ServingEngine(
            glm_mini, method="sample", billing="roofline", length_scale=4
        )
        first = engine.run(_requests())
        second = engine.run(_requests())
        a = first.stages["stages"]["attend"]["calls"]
        assert second.stages["stages"]["attend"]["calls"] == a


class TestBlockExecution:
    def test_block_execution_completes_with_kernel_counters(self, glm_mini):
        engine = ServingEngine(
            glm_mini,
            method="sample",
            billing="roofline",
            length_scale=4,
        )
        res = engine.run(_requests())
        assert all(tm.outcome == "completed" for tm in res.requests)
        assert res.telemetry.counter("kernel_gemm_calls") >= 1
        tiles = res.telemetry.counter("kernel_packed_tiles_visited")
        elements = res.telemetry.counter("kernel_packed_elements_computed")
        # Stripe-granular execution computes fewer score elements than the
        # plan's 64x64 tile footprint holds.
        assert 0 < elements < tiles * 64 * 64
        assert res.stages["counts"]["packed_elements_computed"] == elements
        for tm in res.requests:
            assert len(tm.element_densities) == len(tm.kept_kv_ratios)
            assert 0.0 < tm.mean_element_density < 1.0

    def test_block_summary_deterministic_under_roofline(self, glm_mini):
        def run_once():
            engine = ServingEngine(
                glm_mini,
                method="sample",
                billing="roofline",
                length_scale=4,
            )
            return engine.run(_requests())

        assert run_once().summary() == run_once().summary()

    def test_invalid_execution_and_kernel_mode(self, glm_mini):
        with pytest.raises(ConfigError):
            ServingEngine(glm_mini, execution="warp")
        with pytest.raises(ConfigError):
            ServingEngine(glm_mini, kernel_mode="turbo")


class TestCountersStayOutOfSummary:
    def test_summary_keys_fixed(self, glm_mini):
        engine = ServingEngine(
            glm_mini, method="sample", billing="roofline", length_scale=4,
        )
        res = engine.run(_requests())
        assert not any(k.startswith("kernel_") for k in res.summary())
        assert not any("seconds" in k for k in res.stages["counts"])
