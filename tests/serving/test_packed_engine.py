"""Packed cross-request batching in the serving engine.

The packed path must be an execution strategy, not a semantics change:
same generated tokens, same admission/completion counters, and one fused
kernel dispatch per (layer, batch step).  Runs use ``billing="roofline"``
so timing-derived behaviour is deterministic.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import pool
from repro.config import DEFAULT_CONFIG, PLAN_PROVIDER_NAMES
from repro.errors import ConfigError
from repro.serving import (
    BATCHING_MODES,
    Request,
    ServingEngine,
    chaos_scenario,
    poisson_workload,
)


def burst(n=4, prompt_len=16384, decode_tokens=2):
    return [
        Request(request_id=i, arrival=0.0, prompt_len=prompt_len,
                decode_tokens=decode_tokens)
        for i in range(n)
    ]


def make_engine(model, **kw):
    kw.setdefault("method", "sample")
    kw.setdefault("billing", "roofline")
    kw.setdefault("length_scale", 64)  # 16384 -> 256 executed tokens
    kw.setdefault("chunk_size", 64)
    kw.setdefault("scheduler", "round_robin")
    kw.setdefault("seed", 0)
    return ServingEngine(model, **kw)


def _non_kernel_counters(result):
    return {
        k: v
        for k, v in result.telemetry._counters.items()
        if not k.startswith("kernel_")
    }


class TestPackedConfig:
    def test_modes_registered(self):
        assert BATCHING_MODES == ("request", "packed")

    def test_rejects_bad_batching(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="fused")

    def test_packed_requires_sample_block(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="packed", method="flash")

    def test_rejects_bad_max_batch(self, glm_mini):
        with pytest.raises(ConfigError):
            make_engine(glm_mini, batching="packed", max_batch_requests=0)


class TestPackedParity:
    def test_matches_per_request_engine(self, glm_mini):
        # A simultaneous burst, and a Poisson stream with staggered
        # arrivals and mixed 1K-2K executed prompts in 256-token chunks.
        stream = poisson_workload(
            np.random.default_rng(0),
            rate_per_s=60.0,
            duration_s=0.15,
            prompt_lens=(4096, 6144, 8192),
            decode_tokens=4,
        )
        assert len({r.arrival for r in stream}) > 1
        assert len({r.prompt_len for r in stream}) > 1
        for reqs, kw in (
            (burst(n=4), {}),
            (stream, dict(length_scale=4, chunk_size=256)),
        ):
            base = make_engine(glm_mini, batching="request", **kw).run(reqs)
            packed = make_engine(glm_mini, batching="packed", **kw).run(reqs)

            assert len(packed.completed) == len(base.completed) == len(reqs)
            for a, b in zip(base.requests, packed.requests):
                assert a.request_id == b.request_id
                assert a.outcome == b.outcome
                assert list(a.generated) == list(b.generated)
            assert _non_kernel_counters(packed) == _non_kernel_counters(base)
            # Both inputs co-schedule: the parity is not a batch of one.
            counters = packed.telemetry._counters
            assert (
                counters["kernel_packed_requests"]
                > counters["kernel_packed_dispatches"]
            )

    def test_one_dispatch_per_layer_step(self, glm_mini):
        engine = make_engine(glm_mini, batching="packed")
        result = engine.run(burst(n=4))
        counters = result.telemetry._counters
        dispatches = counters["kernel_packed_dispatches"]
        steps = counters["kernel_packed_prefill_steps"]
        n_layers = glm_mini.config.n_layers
        assert steps > 0
        assert dispatches == n_layers * steps
        # With 4 simultaneous arrivals the batch actually fills.
        assert counters["kernel_packed_requests"] > dispatches

    def test_max_batch_one_still_packs(self, glm_mini):
        engine = make_engine(glm_mini, batching="packed", max_batch_requests=1)
        result = engine.run(burst(n=2))
        counters = result.telemetry._counters
        assert len(result.completed) == 2
        assert (
            counters["kernel_packed_dispatches"]
            == glm_mini.config.n_layers * counters["kernel_packed_prefill_steps"]
        )


class TestPackedDecode:
    """The fused decode path: one ragged dispatch per (layer, step)."""

    def test_decode_dispatch_identity(self, glm_mini):
        result = make_engine(glm_mini, batching="packed").run(
            burst(n=4, decode_tokens=8)
        )
        counters = result.telemetry._counters
        steps = counters["kernel_packed_decode_steps"]
        dispatches = counters["kernel_packed_decode_dispatches"]
        assert steps > 0
        assert dispatches == glm_mini.config.n_layers * steps
        # Four simultaneous arrivals decode in lockstep: each dispatch
        # carries more than one request.
        assert counters["kernel_packed_decode_requests"] > dispatches

    def test_long_decode_matches_per_request_engine(self, glm_mini):
        reqs = burst(n=4, decode_tokens=8)
        base = make_engine(glm_mini, batching="request").run(reqs)
        packed = make_engine(glm_mini, batching="packed").run(reqs)
        assert len(packed.completed) == len(base.completed) == 4
        for a, b in zip(base.requests, packed.requests):
            assert list(a.generated) == list(b.generated)
        assert _non_kernel_counters(packed) == _non_kernel_counters(base)

    def test_paged_backend_decode_parity_and_gather(self, glm_mini):
        reqs = burst(n=3, decode_tokens=6)
        base = make_engine(
            glm_mini, batching="request", kv_backend="paged"
        ).run(reqs)
        packed = make_engine(
            glm_mini, batching="packed", kv_backend="paged"
        ).run(reqs)
        for a, b in zip(base.requests, packed.requests):
            assert list(a.generated) == list(b.generated)
        gather = packed.memory["decode_gather"]
        assert gather["dispatches"] > 0
        # Every batched KV view was served (zero-copy or via the slab).
        assert gather["viewed_tokens"] + gather["gathered_tokens"] > 0

    def test_fcfs_scheduler_also_batches_decode(self, glm_mini):
        result = make_engine(
            glm_mini, batching="packed", scheduler="fcfs"
        ).run(burst(n=3, decode_tokens=4))
        counters = result.telemetry._counters
        assert len(result.completed) == 3
        assert (
            counters["kernel_packed_decode_dispatches"]
            == glm_mini.config.n_layers
            * counters["kernel_packed_decode_steps"]
        )


class TestPooledItemsThroughTheEngine:
    """Long co-scheduled requests put whole prefill items (256-row chunks
    against >= 512 keys) and decode items (>= 1024 cached keys) on
    :mod:`repro.pool`; tokens and every counter are one worker's."""

    def test_two_workers_serve_what_one_does(self, glm_mini):
        reqs = [
            Request(request_id=i, arrival=0.0, prompt_len=n, decode_tokens=4)
            for i, n in enumerate((1100, 1300, 1500))
        ]
        runs = []
        for workers in (1, 2):
            with pool._forced_workers(workers):
                runs.append(make_engine(
                    glm_mini, batching="packed", length_scale=1, chunk_size=256
                ).run(reqs))
        inline, pooled = runs
        assert len(pooled.completed) == 3
        for a, b in zip(inline.requests, pooled.requests):
            assert list(a.generated) == list(b.generated)
        assert pooled.telemetry._counters == inline.telemetry._counters
        assert pooled.telemetry._counters["kernel_packed_requests"] > (
            pooled.telemetry._counters["kernel_packed_dispatches"])


class TestProvidersThroughTheEngine:
    """Every plan provider serves through ``ServingEngine`` in both
    batching modes -- the only engine-level run of the non-default ones."""

    @pytest.mark.parametrize("provider", PLAN_PROVIDER_NAMES)
    def test_request_and_packed_agree(self, glm_mini, provider):
        reqs = [
            Request(request_id=i, arrival=0.002 * i, prompt_len=1024,
                    decode_tokens=3)
            for i in range(3)
        ]
        runs = {
            batching: make_engine(
                glm_mini,
                config=DEFAULT_CONFIG.replace(provider=provider),
                length_scale=1,
                chunk_size=256,
                batching=batching,
            ).run(reqs)
            for batching in BATCHING_MODES
        }
        base, packed = runs["request"], runs["packed"]
        for result in runs.values():
            assert len(result.completed) == 3
            assert result.telemetry.counter("plan_fallbacks") == 0
            assert result.telemetry.counter("cra_guard_violations") == 0
        for a, b in zip(base.requests, packed.requests):
            assert list(a.generated) == list(b.generated)
        assert _non_kernel_counters(packed) == _non_kernel_counters(base)
        c = packed.telemetry._counters
        n_layers = glm_mini.config.n_layers
        assert c["kernel_packed_prefill_steps"] > 0
        assert c["kernel_packed_decode_steps"] > 0
        assert (
            c["kernel_packed_dispatches"]
            == n_layers * c["kernel_packed_prefill_steps"]
        )
        assert (
            c["kernel_packed_decode_dispatches"]
            == n_layers * c["kernel_packed_decode_steps"]
        )


class TestChunkKnorm:
    def _keys(self, rng, s_k):
        return rng.standard_normal((2, s_k, 8), dtype=np.float32)

    def _full(self, keys):
        return float(np.einsum("hsd,hsd->hs", keys, keys).max())

    def test_incremental_equals_full(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        keys = self._keys(rng, 96)
        # Stored value covers the 64-row prefix; the chunk appended 32.
        prefix = keys[:, :64, :]
        job = SimpleNamespace(knorm_sq=[(64, self._full(prefix))])
        covered, val = engine._chunk_knorm(job, 0, keys, 32)
        assert covered == 96
        assert val == self._full(keys)

    def test_stale_tracker_falls_back_to_full(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        keys = self._keys(rng, 96)
        job = SimpleNamespace(knorm_sq=[(40, 123.0)])  # wrong prefix length
        covered, val = engine._chunk_knorm(job, 0, keys, 32)
        assert covered == 96
        assert val == self._full(keys)

    def test_empty_keys(self, glm_mini, rng):
        engine = make_engine(glm_mini, batching="packed")
        job = SimpleNamespace(knorm_sq=None)
        assert engine._chunk_knorm(job, 0, self._keys(rng, 0), 0) == (0, 0.0)


class TestPackedFaultParity:
    """Fault hooks and breaker ticks fire once per chunk in either mode.

    The chaos drill's workload and injector: with ``max_batch_requests=1``
    the packed schedule is the per-request schedule, so every fault
    counter must agree -- an abandoned fused attempt may not re-poison the
    plan cache, re-reserve an arena burst or tick a breaker again.
    """

    def _drill(self, model, **kw):
        scenario = chaos_scenario(0)
        engine = ServingEngine(model, **scenario.serving_kwargs(), **kw)
        return engine.run(list(scenario.requests))

    def test_packed_of_one_counts_the_same_faults(self, glm_mini):
        base = self._drill(glm_mini, batching="request")
        packed = self._drill(
            glm_mini, batching="packed", max_batch_requests=1
        )
        assert base.telemetry.counter("fault_plan_poison") > 0
        assert base.telemetry.counter("chunk_retries") > 0
        for a, b in zip(base.requests, packed.requests):
            assert a.request_id == b.request_id
            assert a.outcome == b.outcome
            assert list(a.generated) == list(b.generated)
        assert _non_kernel_counters(packed) == _non_kernel_counters(base)


class TestFinalChunkPlansFromItsOwnRows:
    """The chunk that produces the first token never inherits stripes.

    With ``replan_interval=4`` a reused plan's stripes were chosen up to
    three chunks earlier, so a needle between the last replanned chunk and
    the final window -- and, at 3K, first-half needles the stale stripe set
    dropped -- was lost.  The final chunk now plans from its own rows.
    """

    CASES = [(2048, 0.62), (2048, 0.75), (2048, 0.87),
             (3072, 0.10), (3072, 0.25), (3072, 0.40)]

    def test_needles_in_the_staleness_hole_are_retrieved(self, glm_mini):
        from repro.tasks.base import score_tokens
        from repro.tasks.needle import make_needle_case

        cases = [
            make_needle_case(n, depth, rng=np.random.default_rng((7, i)))
            for i, (n, depth) in enumerate(self.CASES)
        ]
        engine = ServingEngine(
            glm_mini,
            method="sample",
            batching="packed",
            chunk_size=256,
            scheduler="round_robin",
            prompt_builder=lambda request, n: cases[request.request_id].prompt,
        )
        result = engine.run(
            [Request(i, 0.0, int(c.prompt.size), 2) for i, c in enumerate(cases)]
        )
        for tm, case in zip(result.requests, cases):
            assert tm.outcome == "completed"
            got = tm.generated[: len(case.answer)]
            assert score_tokens(got, case.answer, mode="prefix") == 100.0
            # one plan per layer at chunks 0, 4, 8, ... and at the final one
            n_chunks = tm.n_chunks
            planned = len(set(range(0, n_chunks, 4)) | {n_chunks - 1})
            assert tm.plan_misses == planned * glm_mini.config.n_layers
        assert result.telemetry.counter("plan_fallbacks") == 0

    def test_retry_of_the_final_chunk_hits_its_own_plan(self):
        from repro.config import DEFAULT_CONFIG
        from repro.core.sample_attention import plan_sample_attention
        from repro.serving import PlanCache

        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 8, 4), dtype=np.float32)
        k = rng.standard_normal((2, 24, 4), dtype=np.float32)
        cache = PlanCache(replan_interval=4)
        cache.put(0, 0, plan_sample_attention(q, k[:, :16], DEFAULT_CONFIG),
                  chunk_index=1)
        at = dict(s_q=8, s_k=24)
        assert cache.get(0, 0, chunk_index=2, **at) is not None
        assert cache.get(0, 0, chunk_index=2, fresh=True, **at) is None
        assert cache.stats.misses == 1 and cache.stats.invalid == 0
        final = plan_sample_attention(q, k, DEFAULT_CONFIG)
        cache.put(0, 0, final, chunk_index=2)
        assert cache.get(0, 0, chunk_index=2, fresh=True, **at) is final
