"""End-to-end tests for the executing serving engine.

These run real chunked prefill + decode on the glm-mini substrate, so they
use short executed lengths and ``billing="roofline"`` (deterministic
virtual time derived from executed element counts) wherever timing is
asserted on.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.perf import CHATGLM2_6B, LatencyModel
from repro.serving import (
    Request,
    ServingEngine,
    ServingSimulator,
    poisson_workload,
)


def burst(n=3, prompt_len=16384, gap=0.0, decode_tokens=2):
    return [
        Request(request_id=i, arrival=i * gap, prompt_len=prompt_len,
                decode_tokens=decode_tokens)
        for i in range(n)
    ]


def make_engine(model, **kw):
    kw.setdefault("billing", "roofline")
    kw.setdefault("length_scale", 64)  # 16384 -> 256 executed tokens
    kw.setdefault("chunk_size", 64)
    kw.setdefault("seed", 0)
    return ServingEngine(model, **kw)


class TestConfigValidation:
    def test_rejects_bad_params(self, glm_mini):
        for kw in (
            {"method": "sdpa"},
            {"billing": "cycle-exact"},
            {"chunk_size": 0},
            {"length_scale": 0},
            {"scheduler": "magic"},
            {"admission_policy": "drop_all"},
            {"max_queue": 0},
            {"replan_interval": 0},
        ):
            with pytest.raises(ConfigError):
                ServingEngine(glm_mini, **kw)


class TestExecution:
    def test_completes_and_generates(self, glm_mini):
        engine = make_engine(glm_mini)
        result = engine.run(burst(n=2, decode_tokens=3))
        assert len(result.completed) == 2
        for tm in result.requests:
            assert tm.outcome == "completed"
            assert tm.executed_len == 256
            assert tm.n_chunks == 4
            assert len(tm.generated) == 3
            assert tm.finish >= tm.first_token >= tm.arrival

    def test_plan_cache_amortises_planning(self, glm_mini):
        # 8 chunks: planned at 0 and 4, and the final chunk always plans
        # from its own rows -> 5 hits in 8 lookups per layer.
        engine = make_engine(glm_mini, replan_interval=4, chunk_size=32)
        summ = engine.run(burst(n=2)).summary()
        assert summ["plan_cache_hit_rate"] == 5 / 8
        assert summ["plan_fallbacks"] == 0
        assert 0.0 < summ["mean_kept_kv_ratio"] < 1.0

    def test_replan_interval_one_never_hits(self, glm_mini):
        engine = make_engine(glm_mini, replan_interval=1)
        summ = engine.run(burst(n=1)).summary()
        assert summ["plan_cache_hit_rate"] == 0.0

    def test_roofline_billing_deterministic(self, glm_mini):
        reqs = burst(n=2, gap=0.001)
        a = make_engine(glm_mini).run(reqs).summary()
        b = make_engine(glm_mini).run(reqs).summary()
        assert a == b

    def test_flash_engine_runs_without_cache(self, glm_mini):
        engine = make_engine(glm_mini, method="flash")
        result = engine.run(burst(n=1))
        summ = result.summary()
        assert len(result.completed) == 1
        assert summ["plan_cache_hit_rate"] == 0.0
        assert engine.plan_cache.stats.stores == 0

    def test_round_robin_interleaves_requests(self, glm_mini):
        """Under round-robin a later short request overtakes a long one's
        remaining chunks; under FCFS it waits for the whole prefill."""
        reqs = [
            Request(request_id=0, arrival=0.0, prompt_len=65536, decode_tokens=1),
            Request(request_id=1, arrival=0.0, prompt_len=16384, decode_tokens=1),
        ]
        fcfs = {t.request_id: t for t in make_engine(
            glm_mini, scheduler="fcfs").run(reqs).requests}
        rr = {t.request_id: t for t in make_engine(
            glm_mini, scheduler="round_robin").run(reqs).requests}
        assert rr[1].ttft < fcfs[1].ttft


class TestEngineVsSimulator:
    def test_sample_beats_flash_in_both_engine_and_simulator(self, glm_mini):
        """Acceptance: the executed TTFT ordering matches the simulator's
        prediction on the same seeded workload (above the ~16K crossover)."""
        rng = np.random.default_rng(0)
        reqs = poisson_workload(
            rng, rate_per_s=0.5, duration_s=8,
            prompt_lens=(16384, 32768), decode_tokens=2,
        )
        assert len(reqs) >= 2
        lm = LatencyModel(CHATGLM2_6B, tensor_parallel=4)
        engine_ttft, sim_ttft = {}, {}
        for method in ("sample", "flash"):
            summ = make_engine(glm_mini, method=method).run(reqs).summary()
            assert summ["n_completed"] == len(reqs)
            engine_ttft[method] = summ["mean_ttft_s"]
            sim = ServingSimulator(lm, method=method, alpha=0.95)
            sim_ttft[method] = sim.summarize(sim.run(reqs))["mean_ttft_s"]
        assert engine_ttft["sample"] < engine_ttft["flash"]
        assert sim_ttft["sample"] < sim_ttft["flash"]


class TestBackpressure:
    def test_bounded_queue_rejects_overload(self, glm_mini):
        engine = make_engine(glm_mini, max_queue=2, admission_policy="reject")
        result = engine.run(burst(n=5))
        summ = result.summary()
        assert summ["n_completed"] == 2
        assert summ["n_rejected"] == 3
        rejected = result.telemetry.by_outcome("rejected")
        assert all(t.first_chunk_start is None for t in rejected)
        assert all(t.ttft is None for t in rejected)

    def test_shed_oldest_prefers_unstarted_jobs(self, glm_mini):
        engine = make_engine(glm_mini, max_queue=2,
                             admission_policy="shed_oldest")
        result = engine.run(burst(n=5))
        summ = result.summary()
        assert summ["n_shed"] > 0
        assert summ["n_completed"] + summ["n_rejected"] + summ["n_shed"] == 5
        # Shedding never discards computed work: shed jobs never ran a chunk.
        assert all(
            t.first_chunk_start is None
            for t in result.telemetry.by_outcome("shed")
        )

    def test_no_overload_no_drops(self, glm_mini):
        engine = make_engine(glm_mini, max_queue=16)
        summ = engine.run(burst(n=3, gap=0.5)).summary()
        assert summ["n_rejected"] == 0 and summ["n_shed"] == 0
        assert summ["n_completed"] == 3


def _corrupt_every_plan(monkeypatch, **changes):
    """Every plan the provider hands the engine has ``changes`` applied."""
    import dataclasses

    import repro.serving.engine as engine_mod

    real_make = engine_mod.make_provider

    def corrupt_provider(name):
        real = real_make(name)

        class Corrupt:
            name = real.name

            def plan(self, *args, **kwargs):
                plan = real.plan(*args, **kwargs)
                return dataclasses.replace(
                    plan, **{f: fn(plan) for f, fn in changes.items()}
                )

        return Corrupt()

    monkeypatch.setattr(engine_mod, "make_provider", corrupt_provider)


class TestGracefulDegradation:
    def test_kernel_failure_falls_back_to_dense(self, glm_mini, monkeypatch):
        import repro.serving.engine as engine_mod

        def boom(*args, **kwargs):
            raise ReproError("injected kernel failure")

        monkeypatch.setattr(engine_mod, "packed_block_sparse_attention", boom)
        engine = make_engine(glm_mini)
        result = engine.run(burst(n=1, decode_tokens=1))
        summ = result.summary()
        assert summ["n_completed"] == 1  # request survived via dense fallback
        assert summ["plan_fallbacks"] > 0

    def test_invalid_plan_falls_back_to_dense(self, glm_mini, monkeypatch):
        # window=0 fails validate()
        _corrupt_every_plan(monkeypatch, window=lambda plan: 0)
        engine = make_engine(glm_mini)
        result = engine.run(burst(n=1, decode_tokens=1))
        summ = result.summary()
        assert summ["n_completed"] == 1
        # The replanning chunk sees the corrupt plan and degrades to dense;
        # cache hits re-derive a valid window via extended() and stay sparse.
        assert summ["plan_fallbacks"] > 0


class TestDenseIsAnItemOnThePackedKernel:
    """``method="flash"``, the ladder's dense rung and the ``kernel_error``
    fallback are all the same all-rows-dense packed item."""

    PROMPT_LEN = 3 * 64 * 64  # three 64-token chunks at length_scale 64

    def _flash_tokens(self, model, n):
        res = make_engine(model, method="flash").run(
            burst(n=n, prompt_len=self.PROMPT_LEN, decode_tokens=3)
        )
        assert all(tm.n_chunks == 3 for tm in res.requests)
        return [list(tm.generated) for tm in res.requests]

    def test_dense_rung_generates_the_flash_tokens(self, glm_mini, monkeypatch):
        flash = self._flash_tokens(glm_mini, 1)
        # window=0 fails validate(): every plan falls back to dense and,
        # at degrade_after=1, the ladder walks sparse -> widened -> dense
        # (the final chunk runs on the dense rung; the breaker stays shut).
        _corrupt_every_plan(monkeypatch, window=lambda plan: 0)
        engine = make_engine(
            glm_mini,
            method="sample",
            degrade_after=1,
            replan_interval=1,
            breaker_threshold=10**6,
        )
        res = engine.run(burst(n=1, prompt_len=self.PROMPT_LEN, decode_tokens=3))
        assert res.telemetry.counter("degraded_to_dense") == 1
        assert res.requests[0].degradation_level == "dense"
        assert res.telemetry.counter("kernel_packed_dispatches") == 0
        assert [list(tm.generated) for tm in res.requests] == flash

    def test_kernel_rejection_degrades_every_item_of_the_dispatch(
        self, glm_mini, monkeypatch
    ):
        import repro.serving.engine as engine_mod
        from repro.errors import MaskError

        flash = self._flash_tokens(glm_mini, 2)
        # A stale s_q passes validate() (it never looks) but the kernel's
        # own validation pass rejects the item's mask geometry; the dense
        # fallback then goes through that same validator with the item's
        # own always-valid geometry.
        _corrupt_every_plan(monkeypatch, s_q=lambda plan: plan.s_q + 1)
        real = engine_mod.packed_block_sparse_attention
        widths, rejected = [], []

        def spy(items, **kw):
            widths.append(len(items))
            try:
                return real(items, **kw)
            except MaskError as err:
                rejected.append(err)
                raise

        monkeypatch.setattr(engine_mod, "packed_block_sparse_attention", spy)
        engine = make_engine(
            glm_mini,
            method="sample",
            batching="packed",
            scheduler="round_robin",
            replan_interval=1,
            degrade_after=10**6,  # stay on the sparse rung ...
            breaker_threshold=10**6,  # ... with the breaker closed
        )
        res = engine.run(burst(n=2, prompt_len=self.PROMPT_LEN, decode_tokens=3))
        attempts = 3 * glm_mini.config.n_layers  # (chunk, layer) dispatches
        assert widths == [2] * attempts and len(rejected) == attempts
        assert len(res.completed) == 2
        assert [list(tm.generated) for tm in res.requests] == flash
        # once per item, not once per dispatch
        counters = res.telemetry
        assert counters.counter("cra_violation_kernel_error") == 2 * attempts
        assert counters.counter("plan_fallbacks") == 2 * attempts
        assert counters.counter("kernel_packed_dispatches") == 0
        for tm in res.requests:
            assert tm.plan_fallbacks == attempts

    def test_shape_error_out_of_the_fallback_propagates(
        self, glm_mini, monkeypatch
    ):
        import repro.serving.engine as engine_mod
        from repro.errors import ShapeError

        _corrupt_every_plan(monkeypatch, s_q=lambda plan: plan.s_q + 1)

        def bad_tensors(*args, **kwargs):
            raise ShapeError("k and v must share a shape")

        monkeypatch.setattr(engine_mod, "flash_attention", bad_tensors)
        engine = make_engine(glm_mini, method="sample")
        with pytest.raises(ShapeError):
            engine.run(burst(n=1, decode_tokens=1))
