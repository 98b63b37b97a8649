"""End-to-end tests for the paged KV backend of the serving engine.

Parity assertions use ``method="flash"``: dense attention is
chunk-boundary invariant, so prefix adoption (which shifts chunk starts)
and backend choice must not change a single generated token.  The sample
method's chunk-boundary sensitivity is covered by the memory drill's
near-lossless gates instead.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving import Request, ServingEngine
from repro.serving.engine import KV_BACKENDS


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
    kw.setdefault("method", "flash")
    return ServingEngine(model, **kw)


def shared_prefix_builder(tail_tokens=32):
    """Identical prefix across requests, unique per-request tail."""

    def build(request, executed_len):
        prefix = np.arange(executed_len - tail_tokens, dtype=np.int64) % 997
        rng = np.random.default_rng(request.request_id + 1)
        tail = rng.integers(0, 997, size=tail_tokens, dtype=np.int64)
        return np.concatenate([prefix, tail])

    return build


class TestConfigValidation:
    def test_backends_registry(self):
        assert KV_BACKENDS == ("contiguous", "paged")

    def test_rejects_bad_memory_params(self, glm_mini):
        for kw in (
            {"kv_backend": "virtual"},
            {"kv_backend": "paged", "arena_blocks": 0},
            {"kv_backend": "paged", "block_tokens": 0},
        ):
            with pytest.raises(ConfigError):
                ServingEngine(glm_mini, **kw)


class TestBackendParity:
    def test_paged_matches_contiguous_bitwise(self, glm_mini):
        reqs = burst(n=2, decode_tokens=3)
        contig = make_engine(glm_mini).run(reqs)
        paged = make_engine(glm_mini, kv_backend="paged").run(reqs)
        assert len(paged.completed) == len(contig.completed) == 2
        for a, b in zip(contig.requests, paged.requests):
            assert a.outcome == b.outcome == "completed"
            assert a.executed_len == b.executed_len
            assert a.generated == b.generated  # bitwise-identical decode

    def test_adoption_does_not_change_tokens(self, glm_mini):
        """Prefix adoption skips executed chunks yet generates the same
        tokens as the contiguous backend on the same prompts."""
        # Space arrivals so the donor registers its prefix before the
        # followers are admitted (lookup happens at admission time).
        reqs = burst(n=3, gap=1.0)
        builder = shared_prefix_builder()
        contig = make_engine(glm_mini, prompt_builder=builder).run(reqs)
        paged = make_engine(
            glm_mini, kv_backend="paged", prompt_builder=builder
        ).run(reqs)
        summ = paged.summary()
        assert summ["prefix_cache_hits"] == 2  # requests 1 and 2 adopt
        assert summ["prefix_tokens_reused"] > 0
        for a, b in zip(contig.requests, paged.requests):
            assert a.generated == b.generated


class TestMemoryReport:
    def test_report_present_only_for_paged(self, glm_mini):
        reqs = burst(n=1)
        assert make_engine(glm_mini).run(reqs).memory == {}
        mem = make_engine(glm_mini, kv_backend="paged").run(reqs).memory
        assert set(mem) == {
            "arena", "sharing", "pressure", "memory_breaker_trips",
            "decode_gather",
        }
        assert mem["arena"]["blocks_in_use"] == 0  # leak-free shutdown
        assert mem["arena"]["peak_blocks_in_use"] > 0
        assert mem["pressure"]["level"] == "normal"

    def test_auto_sized_arena_sees_no_pressure(self, glm_mini):
        result = make_engine(glm_mini, kv_backend="paged").run(burst(n=3))
        summ = result.summary()
        assert summ["arena_exhaustion_events"] == 0
        assert summ["memory_sheds"] == 0
        assert len(result.completed) == 3

    def test_sharing_disabled(self, glm_mini):
        result = make_engine(
            glm_mini,
            kv_backend="paged",
            prefix_sharing=False,
            prompt_builder=shared_prefix_builder(),
        ).run(burst(n=2))
        assert result.memory["sharing"] is None
        assert result.summary()["prefix_cache_hits"] == 0
        assert len(result.completed) == 2

    def test_shared_tokens_reported_per_request(self, glm_mini):
        result = make_engine(
            glm_mini,
            kv_backend="paged",
            prompt_builder=shared_prefix_builder(),
        ).run(burst(n=2, gap=1.0))
        first, second = result.requests
        assert first.shared_tokens == 0  # donor executes everything
        assert second.shared_tokens > 0
        assert second.shared_tokens % result.memory["arena"]["block_tokens"] == 0
        # Adoption skips prefill work: fewer chunks than the donor ran.
        assert second.n_chunks < first.n_chunks


class TestPressureRelief:
    def test_registry_shrink_relieves_exhaustion(self, glm_mini):
        """A tight arena whose only reclaimable blocks are registry refs:
        request 0 completes and registers its prefix; request 1 (distinct
        prompt) exhausts the arena mid-prefill, and the pressure ladder's
        lossless rung -- dropping the registry entry -- must relieve it."""
        cfg = glm_mini.config
        bt = 32
        per_layer = -(-(256 + 2 + 1) // bt)  # blocks one request needs
        arena_blocks = cfg.n_layers * per_layer + cfg.n_layers
        result = make_engine(
            glm_mini,
            kv_backend="paged",
            arena_blocks=arena_blocks,
            block_tokens=bt,
            scheduler="fcfs",
        ).run(burst(n=2, gap=0.0))
        summ = result.summary()
        assert len(result.completed) == 2  # nobody shed
        assert summ["arena_exhaustion_events"] >= 1
        assert summ["memory_pressure_relief"] >= 1
        assert summ["memory_sheds"] == 0
        assert result.memory["pressure"]["registry_blocks_dropped"] > 0
        assert result.memory["arena"]["blocks_in_use"] == 0

    def test_tight_arena_run_is_deterministic(self, glm_mini):
        cfg = glm_mini.config
        arena_blocks = cfg.n_layers * 9 + cfg.n_layers

        def run():
            return make_engine(
                glm_mini,
                kv_backend="paged",
                arena_blocks=arena_blocks,
                block_tokens=32,
            ).run(burst(n=2)).summary()

        assert run() == run()


class TestMirrorReads:
    """KV reads copy each token out of the arena once, not once per step."""

    @staticmethod
    def _record_caches(monkeypatch):
        from repro.serving import engine as engine_module

        made = []

        class Recorded(engine_module.PagedLayerKVCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(engine_module, "PagedLayerKVCache", Recorded)
        return made

    def test_each_token_is_copied_once_and_tokens_match_contiguous(
        self, glm_mini, monkeypatch
    ):
        reqs = burst(n=3, gap=1.0, decode_tokens=4)
        builder = shared_prefix_builder()
        contig = make_engine(glm_mini, prompt_builder=builder).run(reqs)
        made = self._record_caches(monkeypatch)
        paged = make_engine(
            glm_mini, kv_backend="paged", prompt_builder=builder
        ).run(reqs)
        assert paged.summary()["prefix_cache_hits"] == 2
        for a, b in zip(contig.requests, paged.requests):
            assert a.generated == b.generated
        n_layers = glm_mini.config.n_layers
        assert len(made) == n_layers * len(reqs)
        # Adopted + executed prompt + decoded tokens, each mirrored at most
        # once per (request, layer) -- the old read path re-copied the whole
        # prefix for every chunk and every decode step.
        for i, cache in enumerate(made):
            tm = paged.requests[i // n_layers]
            assert 0 < cache.copied_tokens <= tm.executed_len + 4
        # A finished request pins no second copy of its KV.
        assert all(c.mirror_nbytes == 0 and len(c) == 0 for c in made)

    def test_fused_decode_gathers_only_the_new_tokens(self, glm_mini):
        reqs = burst(n=3, gap=1.0, decode_tokens=5)
        result = make_engine(
            glm_mini,
            kv_backend="paged",
            prompt_builder=shared_prefix_builder(),
            method="sample",
            batching="packed",
        ).run(reqs)
        assert result.summary()["prefix_cache_hits"] == 2
        gather = result.memory["decode_gather"]
        decoded = sum(len(r.generated) for r in result.requests)
        assert gather["dispatches"] > 0
        assert 0 < gather["gathered_tokens"] <= (
            glm_mini.config.n_layers * decoded
        )
        assert gather["viewed_tokens"] > 50 * gather["gathered_tokens"]
