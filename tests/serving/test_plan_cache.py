"""Tests for the sparse-plan cache and SparsePlan's serving extensions."""

import dataclasses

import numpy as np
import pytest

from repro.config import SampleAttentionConfig
from repro.core import plan_sample_attention, sample_attention
from repro.errors import ConfigError
from repro.serving import PlanCache

CFG = SampleAttentionConfig(alpha=0.95, r_row=0.1, r_window=0.1, block_size=16)


@pytest.fixture(scope="module")
def qkv():
    rng = np.random.default_rng(7)
    h, h_kv, s, d = 4, 2, 256, 32
    q = rng.standard_normal((h, s, d)).astype(np.float32)
    k = rng.standard_normal((h_kv, s, d)).astype(np.float32)
    v = rng.standard_normal((h_kv, s, d)).astype(np.float32)
    return q, k, v


@pytest.fixture(scope="module")
def plan(qkv):
    q, k, _ = qkv
    return plan_sample_attention(q, k, CFG)


class TestSparsePlanExtended:
    def test_same_geometry_returns_self(self, plan):
        assert plan.extended(s_q=plan.s_q, s_k=plan.s_k) is plan

    def test_grown_prefix_regeometries(self, plan):
        bigger = plan.extended(s_q=64, s_k=plan.s_k + 128)
        assert bigger.s_q == 64 and bigger.s_k == plan.s_k + 128
        assert bigger.window == max(CFG.window_size(bigger.s_k), 1)
        # Stripe indices are reused verbatim; ratios renormalise to new s_k.
        for a, b in zip(bigger.kv_indices, plan.kv_indices):
            assert a is b
        assert np.allclose(bigger.kv_ratio * bigger.s_k, plan.kv_ratio * plan.s_k)
        assert bigger.validate()

    def test_shrinking_prefix_rejected(self, plan):
        with pytest.raises(ConfigError):
            plan.extended(s_q=plan.s_q, s_k=plan.s_k - 1)

    def test_validate_accepts_fresh_plan(self, plan):
        assert plan.validate()
        assert plan.validate(s_k=plan.s_k + 64)

    def test_validate_catches_corruption(self, plan):
        bad = dataclasses.replace(plan, window=0)
        assert not bad.validate()
        bad = dataclasses.replace(plan, window=plan.s_k + 1)
        assert not bad.validate()
        oob = [np.array([0, plan.s_k], dtype=np.int64)] * plan.n_heads
        assert not dataclasses.replace(plan, kv_indices=oob).validate()
        unsorted = [np.array([5, 3], dtype=np.int64)] * plan.n_heads
        assert not dataclasses.replace(plan, kv_indices=unsorted).validate()
        nan_ratio = dataclasses.replace(
            plan, kv_ratio=np.full_like(plan.kv_ratio, np.nan)
        )
        assert not nan_ratio.validate()


class TestPlanReuseBoundaries:
    """Regression pins for the plan-reuse boundary fixes: min_keep
    validation at small planning prefixes, element_density domain, and
    band re-clipping on extension."""

    def test_min_keep_clamped_plan_reuses_as_hit_not_invalid(self, qkv):
        """A plan legally built at a tiny prefix (stripes clamped to
        s_k=8 < min_keep=16) must be a cache *hit* when fetched at
        s_k=64, not an `invalid` miss replanned every chunk."""
        q, k, v = qkv
        cfg = CFG.replace(min_keep=16)
        plan0 = plan_sample_attention(q[:, :8], k[:, :8], cfg)
        assert plan0.s_k == 8
        assert all(ix.size <= 8 for ix in plan0.kv_indices)
        assert plan0.validate()

        cache = PlanCache(replan_interval=4)
        cache.put(0, 0, plan0, chunk_index=0)
        got = cache.get(0, 0, chunk_index=1, s_q=56, s_k=64)
        assert got is not None, "small-prefix plan spuriously invalidated"
        assert cache.stats.invalid == 0
        assert cache.stats.hits == 1
        assert got.validate(s_k=64)
        assert got.planning_s_k == 8 and got.s_k == 64

        # Executing the cached extension is bitwise identical to executing
        # the plan's own extension directly -- reuse changes nothing.
        out_cached = sample_attention(
            q[:, 8:64], k[:, :64], v[:, :64], cfg, plan=got
        ).output
        out_direct = sample_attention(
            q[:, 8:64], k[:, :64], v[:, :64], cfg,
            plan=plan0.extended(s_q=56, s_k=64),
        ).output
        assert np.array_equal(out_cached, out_direct)

    def test_min_keep_still_enforced_at_planning_length(self, plan):
        """The floor still rejects genuinely short stripe sets: fewer
        stripes than min_keep at the *planning* length stays invalid."""
        short = [np.arange(2, dtype=np.int64)] * plan.n_heads
        bad = dataclasses.replace(
            plan,
            kv_indices=short,
            config=plan.config.replace(min_keep=8),
        )
        assert not bad.validate()

    def test_element_density_rejects_more_queries_than_keys(self, plan):
        """s_q > s_k has no causal element count to normalise by; the old
        code returned garbage (negative offsets), now it raises."""
        bad = dataclasses.replace(plan, s_q=plan.s_k + 5)
        with pytest.raises(ConfigError):
            bad.element_density()

    def test_extended_reclips_bands_to_planning_prefix(self, plan):
        """Diagonal bands detected at the planned geometry carry no
        evidence past the planned prefix: extension clips a reaching band
        to [0, planning_s_k) and drops one entirely beyond it."""
        banded = dataclasses.replace(
            plan,
            extras={
                "bands": [
                    (2, plan.s_k + 40),          # reaches past the prefix
                    (plan.s_k + 8, plan.s_k + 16),  # entirely beyond it
                ]
            },
        )
        ext = banded.extended(s_q=32, s_k=plan.s_k + 128)
        assert ext.extras["bands"] == [(2, plan.s_k)]
        assert ext.planning_s_k == plan.s_k
        # A second extension clips against the *original* planning length.
        ext2 = ext.extended(s_q=16, s_k=plan.s_k + 256)
        assert ext2.extras["bands"] == [(2, plan.s_k)]
        assert ext2.planning_s_k == plan.s_k

    def test_extended_keeps_inrange_bands(self, plan):
        banded = dataclasses.replace(plan, extras={"bands": [(3, 11)]})
        ext = banded.extended(s_q=32, s_k=plan.s_k + 64)
        assert ext.extras["bands"] == [(3, 11)]


class TestPlanCache:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            PlanCache(0)

    def test_miss_then_hit(self, plan):
        cache = PlanCache(replan_interval=4)
        assert cache.get(0, 0, chunk_index=0, s_q=plan.s_q, s_k=plan.s_k) is None
        cache.put(0, 0, plan, chunk_index=0)
        got = cache.get(0, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k)
        assert got is plan
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_hit_is_bitwise_identical_for_unchanged_prefix(self, qkv, plan):
        """Property: a cache hit at the planning geometry executes the exact
        plan that was stored, so outputs are bitwise equal to a fresh run."""
        q, k, v = qkv
        cache = PlanCache(replan_interval=4)
        cache.put(3, 1, plan, chunk_index=0)
        cached = cache.get(3, 1, chunk_index=2, s_q=plan.s_q, s_k=plan.s_k)
        assert cached is plan  # same object, not a reconstruction
        fresh = sample_attention(q, k, v, CFG, plan=plan)
        reused = sample_attention(q, k, v, CFG, plan=cached)
        assert np.array_equal(fresh.output, reused.output)
        assert fresh.output.dtype == reused.output.dtype

    def test_replan_interval_expires_entry(self, plan):
        cache = PlanCache(replan_interval=2)
        cache.put(0, 0, plan, chunk_index=0)
        assert (
            cache.get(0, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k) is not None
        )
        assert cache.get(0, 0, chunk_index=2, s_q=plan.s_q, s_k=plan.s_k) is None

    def test_invalid_entry_dropped_and_counted(self, plan):
        cache = PlanCache(replan_interval=4)
        bad = dataclasses.replace(
            plan,
            kv_indices=[np.array([plan.s_k + 9], dtype=np.int64)] * plan.n_heads,
        )
        cache.put(0, 0, bad, chunk_index=0)
        assert cache.get(0, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k) is None
        assert cache.stats.invalid == 1
        assert len(cache) == 0  # entry was evicted, not retried forever

    def test_keys_are_per_request_and_layer(self, plan):
        cache = PlanCache(replan_interval=4)
        cache.put(1, 0, plan, chunk_index=0)
        assert cache.get(1, 1, chunk_index=0, s_q=plan.s_q, s_k=plan.s_k) is None
        assert cache.get(2, 0, chunk_index=0, s_q=plan.s_q, s_k=plan.s_k) is None
        assert (
            cache.get(1, 0, chunk_index=0, s_q=plan.s_q, s_k=plan.s_k) is plan
        )

    def test_drop_request_evicts_all_layers(self, plan):
        cache = PlanCache(replan_interval=4)
        for layer in range(3):
            cache.put(5, layer, plan, chunk_index=0)
        cache.put(6, 0, plan, chunk_index=0)
        cache.drop_request(5)
        assert len(cache) == 1
        assert cache.stats.evictions == 3

    def test_poison_then_drop_request_does_not_resurrect(self, plan):
        """A poisoned entry whose request's KV got evicted must be gone.

        Under memory pressure the engine evicts a request's KV blocks and
        calls ``drop_request``; a semantically poisoned plan (structurally
        valid, so ``get`` would happily re-geometry it via ``extended``)
        must not survive that eviction and resurface on the retry path.
        """
        cache = PlanCache(replan_interval=100)
        for layer in range(3):
            cache.put(7, layer, plan, chunk_index=0)

        # Semantic poison: shrink the window -- still passes validate().
        def corrupt(layer, p):
            return dataclasses.replace(p, window=1)

        assert cache.poison(7, corrupt) == 3
        poisoned = cache.get(7, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k)
        assert poisoned is not None and poisoned.window == 1  # handed out

        cache.drop_request(7)  # the engine's response to KV eviction
        for layer in range(3):
            got = cache.get(
                7, layer, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k + 32
            )
            assert got is None  # no extended() reuse of the poisoned plan
        assert cache.stats.poisoned == 3
        assert cache.stats.evictions == 3

        # A fresh plan stored after eviction is served clean.
        cache.put(7, 0, plan, chunk_index=2)
        clean = cache.get(7, 0, chunk_index=3, s_q=plan.s_q, s_k=plan.s_k)
        assert clean is plan and clean.window == plan.window

    def test_invalidate_poisoned_entry_blocks_extended_reuse(self, plan):
        """The runtime-guard path: ``invalidate`` after a poisoned plan trips
        the CRA guard must prevent the next chunk's ``extended`` reuse."""
        cache = PlanCache(replan_interval=100)
        cache.put(8, 0, plan, chunk_index=0)
        cache.poison(8, lambda layer, p: dataclasses.replace(p, window=1))
        assert cache.invalidate(8, 0) is True
        assert (
            cache.get(8, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k + 16)
            is None
        )
        assert cache.invalidate(8, 0) is False  # already gone, idempotent

    def test_drop_request_after_put_get_cycle_under_growth(self, plan):
        """Eviction wins over reuse: even inside the replan interval, a
        dropped request always misses."""
        cache = PlanCache(replan_interval=100)
        cache.put(9, 0, plan, chunk_index=0)
        grown = cache.get(9, 0, chunk_index=1, s_q=32, s_k=plan.s_k + 64)
        assert grown is not None and grown.s_k == plan.s_k + 64
        cache.drop_request(9)
        assert cache.get(9, 0, chunk_index=1, s_q=32, s_k=plan.s_k + 64) is None

    def test_stats_as_dict(self, plan):
        cache = PlanCache()
        cache.put(0, 0, plan, chunk_index=0)
        cache.get(0, 0, chunk_index=1, s_q=plan.s_q, s_k=plan.s_k)
        d = cache.stats.as_dict()
        assert d["stores"] == 1 and d["hits"] == 1 and d["hit_rate"] == 1.0
