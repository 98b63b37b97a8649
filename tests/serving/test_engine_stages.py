"""Engine kernel counters and the packed block-sparse execution path."""

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


class TestKernelCounters:
    def test_kernel_counters_reset_between_runs(self, glm_mini):
        engine = ServingEngine(
            glm_mini, method="sample", billing="roofline", length_scale=4
        )
        first = engine.run(_requests())
        second = engine.run(_requests())
        a = first.telemetry.counter("kernel_packed_dispatches")
        assert a > 0
        assert second.telemetry.counter("kernel_packed_dispatches") == a


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
        counters = res.telemetry.to_dict()["counters"]
        assert not any(
            "seconds" in k for k in counters if k.startswith("kernel_")
        )
