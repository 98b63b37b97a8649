"""StageProfiler: timing accumulation and pipeline integration."""

import time

import numpy as np
import pytest

from repro.attention import block_sparse_attention, fast_block_sparse_attention
from repro.config import SampleAttentionConfig
from repro.core import (
    StageProfiler,
    plan_sample_attention,
    sample_attention,
)


def _qkv(seed=0, h=4, h_kv=2, s=192, d=16):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((h, s, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s, d), dtype=np.float32)
    return q, k, v


class TestStageProfiler:
    def test_stage_accumulates_time_and_calls(self):
        prof = StageProfiler()
        for _ in range(3):
            with prof.stage("work"):
                pass
        assert prof.calls["work"] == 3
        assert prof.timings["work"] >= 0.0

    def test_counts_and_merge(self):
        a, b = StageProfiler(), StageProfiler()
        a.count("tiles", 5)
        b.count("tiles", 7)
        with b.stage("attend"):
            pass
        a.merge(b)
        assert a.counts["tiles"] == 12.0
        assert a.calls["attend"] == 1

    def test_report_shares_sum_to_one(self):
        prof = StageProfiler()
        with prof.stage("x"):
            sum(range(1000))
        with prof.stage("y"):
            sum(range(1000))
        report = prof.report()
        shares = [s["share"] for s in report["stages"].values()]
        assert abs(sum(shares) - 1.0) < 1e-9
        assert report["total_seconds"] == pytest.approx(prof.total_time())

    def test_nested_stages_are_exclusive(self):
        """A parent is charged its span minus its children's, so stage
        seconds add up to the wall clock instead of double-counting."""
        prof = StageProfiler()
        t0 = time.perf_counter()
        with prof.stage("decode"):
            time.sleep(0.01)
            for _ in range(2):
                with prof.stage("attend"):
                    time.sleep(0.02)
        wall = time.perf_counter() - t0
        assert prof.calls == {"decode": 1, "attend": 2}
        assert prof.timings["attend"] >= 0.04
        assert 0.01 <= prof.timings["decode"] < 0.03  # not 0.05: exclusive
        assert prof.total_time() <= wall
        # The stack unwinds: a later top-level stage is charged in full.
        with prof.stage("unpack"):
            time.sleep(0.01)
        assert prof.timings["unpack"] >= 0.01

    def test_nested_stage_unwinds_on_error(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.stage("outer"):
                with prof.stage("inner"):
                    raise RuntimeError("boom")
        with prof.stage("after"):
            pass
        assert prof.calls == {"outer": 1, "inner": 1, "after": 1}
        assert all(dt >= 0.0 for dt in prof.timings.values())

    def test_empty_report(self):
        report = StageProfiler().report()
        assert report["total_seconds"] == 0.0
        assert report["stages"] == {}
        assert report["counts"] == {}


class TestPipelineIntegration:
    def test_plan_records_sample_and_filter(self):
        q, k, _ = _qkv()
        prof = StageProfiler()
        plan_sample_attention(q, k, SampleAttentionConfig(), profiler=prof)
        assert set(prof.timings) == {"sample", "filter"}

    def test_striped_execution_records_attend_without_counts(self):
        q, k, v = _qkv()
        prof = StageProfiler()
        res = sample_attention(q, k, v, SampleAttentionConfig(), profiler=prof)
        assert res.output.shape == q.shape
        assert {"sample", "filter", "attend"} <= set(prof.timings)
        assert prof.counts == {}

    def test_kernel_modes_agree_through_sample_attention(self):
        # Tile-granular execution of a planned mask: the fast path vs its
        # tile-at-a-time oracle, and the plan executor's footprint counts.
        q, k, v = _qkv(seed=2)
        res = sample_attention(q, k, v, SampleAttentionConfig())
        mask = res.plan.to_block_mask()
        fast = fast_block_sparse_attention(q, k, v, mask)
        ref = block_sparse_attention(q, k, v, mask)
        np.testing.assert_allclose(fast.output, ref.output, atol=2e-5)
        np.testing.assert_array_equal(fast.visited_blocks, ref.visited_blocks)
        np.testing.assert_array_equal(
            res.kernel.visited_blocks, ref.visited_blocks
        )
