"""Tests for the fault-injection harness and the engine's recovery stack.

The chaos tests drive the real engine (glm-mini substrate, roofline
billing) under a seeded :class:`~repro.serving.FaultInjector` and assert
the recovery guarantees the drill is built around: every request terminal,
every runtime CRA-guard trip answered by a dense fallback, and the whole
run bitwise-reproducible from the seed.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    FaultInjectionError,
    ReproError,
)
from repro.serving import (
    CORRUPTION_MODES,
    DEGRADATION_LEVELS,
    FAULT_KINDS,
    TERMINAL_OUTCOMES,
    CircuitBreaker,
    FaultInjector,
    Request,
    ServingEngine,
    check_recovery_invariants,
    corrupt_plan,
    inject_admission_burst,
)
from repro.serving import engine as engine_module


def burst(n=2, prompt_len=16384, gap=0.0, decode_tokens=2):
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


class TestErrorsExported:
    def test_hierarchy(self):
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(FaultInjectionError, RuntimeError)


class TestFaultInjector:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            FaultInjector(0, p_attend_fault=1.5)
        with pytest.raises(ConfigError):
            FaultInjector(0, max_transient_failures=0)
        with pytest.raises(ConfigError):
            FaultInjector(0, spike_multiplier=0.5)

    def test_decisions_deterministic_and_order_independent(self):
        a = FaultInjector(7, p_attend_fault=0.5, p_plan_poison=0.5,
                          p_latency_spike=0.5, p_straggler=0.5)
        b = FaultInjector(7, p_attend_fault=0.5, p_plan_poison=0.5,
                          p_latency_spike=0.5, p_straggler=0.5)
        keys = [(rid, chunk) for rid in range(4) for chunk in range(4)]
        fwd = [a.attend_failures(r, c) for r, c in keys]
        rev = [b.attend_failures(r, c) for r, c in reversed(keys)]
        assert fwd == rev[::-1]
        assert [a.poison_mode(r, c) for r, c in keys] == [
            b.poison_mode(r, c) for r, c in keys
        ]
        assert [a.latency_multiplier(r, c) for r, c in keys] == [
            b.latency_multiplier(r, c) for r, c in keys
        ]

    def test_seed_changes_decisions(self):
        a = FaultInjector(0, p_attend_fault=0.5)
        b = FaultInjector(1, p_attend_fault=0.5)
        keys = [(rid, chunk) for rid in range(8) for chunk in range(8)]
        assert [a.attend_failures(r, c) for r, c in keys] != [
            b.attend_failures(r, c) for r, c in keys
        ]

    def test_failures_bounded_by_max_transient(self):
        inj = FaultInjector(3, p_attend_fault=1.0, max_transient_failures=2)
        for rid in range(8):
            k = inj.attend_failures(rid, 0)
            assert 1 <= k <= 2

    def test_spike_fired_agrees_with_multiplier(self):
        inj = FaultInjector(5, p_latency_spike=0.5, spike_multiplier=8.0)
        for rid in range(8):
            fired = inj.spike_fired(rid, 0)
            mult = inj.latency_multiplier(rid, 0)
            assert fired == (mult >= 8.0)

    def test_zero_probability_injects_nothing(self):
        inj = FaultInjector(0)
        for rid in range(8):
            assert inj.attend_failures(rid, 0) == 0
            assert inj.poison_mode(rid, 0) is None
            assert inj.latency_multiplier(rid, 0) == 1.0
            assert not inj.is_straggler(rid)

    def test_as_dict_roundtrips_config(self):
        inj = FaultInjector(9, p_attend_fault=0.25)
        d = inj.as_dict()
        assert d["seed"] == 9 and d["p_attend_fault"] == 0.25
        assert set(d) >= {"p_plan_poison", "p_latency_spike", "p_straggler"}

    def test_replace_rebuilds_injector_with_changes(self):
        inj = FaultInjector(
            3, p_slow_chunk=0.5, slow_chunk_multiplier=6.0,
            p_worker_crash=0.4, p_worker_stall=0.3, p_heartbeat_loss=0.2,
        )
        clone = inj.replace()
        assert clone is not inj and clone.as_dict() == inj.as_dict()
        for rid in range(6):
            assert clone.slow_factor(rid, 0) == inj.slow_factor(rid, 0)
            assert clone.worker_crash(rid, 0) == inj.worker_crash(rid, 0)
        calm = inj.replace(p_slow_chunk=0.0, p_worker_crash=0.0)
        assert calm.as_dict() == {
            **inj.as_dict(), "p_slow_chunk": 0.0, "p_worker_crash": 0.0
        }
        assert all(calm.slow_factor(rid, 0) == 1.0 for rid in range(6))
        with pytest.raises(TypeError):
            inj.replace(p_meteor_strike=0.1)

    def test_slow_chunk_factor_bounded_and_deterministic(self):
        inj = FaultInjector(11, p_slow_chunk=0.6, slow_chunk_multiplier=4.0)
        fired = 0
        for rid in range(16):
            for chunk in range(4):
                f = inj.slow_factor(rid, chunk)
                assert f == inj.slow_factor(rid, chunk)
                assert 1.0 <= f <= 4.0
                fired += f > 1.0
        assert fired > 0
        assert FaultInjector(11, p_slow_chunk=0.0).slow_factor(0, 0) == 1.0

    def test_worker_faults_deterministic_and_bounded(self):
        inj = FaultInjector(
            5, p_worker_crash=0.5, p_worker_stall=0.5,
            worker_stall_multiplier=8.0, p_heartbeat_loss=0.3,
            heartbeat_loss_run=2,
        )
        crashes = stalls = 0
        for wid in range(3):
            for seq in range(8):
                frac = inj.worker_crash(wid, seq)
                assert frac == inj.worker_crash(wid, seq)
                if frac is not None:
                    assert 0.0 < frac < 1.0
                    crashes += 1
                stall = inj.worker_stall(wid, seq)
                assert stall in (1.0, 8.0)
                stalls += stall > 1.0
        assert crashes > 0 and stalls > 0
        # heartbeat loss comes in episodes of heartbeat_loss_run beats
        lost = [b for b in range(64) if inj.heartbeat_lost(0, b)]
        assert lost and all(
            inj.heartbeat_lost(0, b) == (b in lost) for b in range(64)
        )

    def test_fleet_faults_reject_bad_config(self):
        for kw in (
            {"p_slow_chunk": 1.5},
            {"slow_chunk_multiplier": 0.5},
            {"p_worker_crash": -0.1},
            {"p_worker_stall": 2.0},
            {"worker_stall_multiplier": 0.0},
            {"p_heartbeat_loss": 1.01},
            {"heartbeat_loss_run": 0},
        ):
            with pytest.raises(ConfigError):
                FaultInjector(0, **kw)


class TestAdmissionBurst:
    def test_burst_spliced_with_fresh_ids(self):
        base = burst(n=3, gap=0.5)
        out = inject_admission_burst(base, seed=0, at=0.6, n=4)
        assert len(out) == 7
        assert len({r.request_id for r in out}) == 7
        new = [r for r in out if r.request_id >= 3]
        assert all(0.6 <= r.arrival < 0.6 + 1e-2 for r in new)
        assert out == sorted(out, key=lambda r: (r.arrival, r.request_id))

    def test_burst_deterministic(self):
        base = burst(n=2)
        a = inject_admission_burst(base, seed=5, at=0.1, n=3)
        b = inject_admission_burst(base, seed=5, at=0.1, n=3)
        assert a == b

    def test_rejects_bad_burst(self):
        with pytest.raises(ConfigError):
            inject_admission_burst([], seed=0, at=0.0, n=0)
        with pytest.raises(ConfigError):
            inject_admission_burst([], seed=0, at=-1.0, n=1)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        br = CircuitBreaker(threshold=3, cooldown_chunks=2)
        assert br.allow_sparse()
        assert not br.record_violation()
        assert not br.record_violation()
        assert br.record_violation()  # third consecutive trips it
        assert br.state == "open" and not br.allow_sparse()
        br.tick()
        br.tick()
        assert br.state == "half_open" and br.allow_sparse()
        br.record_success()
        assert br.state == "closed"

    def test_half_open_retrips_on_violation(self):
        br = CircuitBreaker(threshold=1, cooldown_chunks=1)
        assert br.record_violation()
        br.tick()
        assert br.state == "half_open"
        assert br.record_violation()  # one strike in half-open
        assert br.state == "open" and br.trips == 2

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=2, cooldown_chunks=1)
        br.record_violation()
        br.record_success()
        assert not br.record_violation()  # streak restarted
        assert br.state == "closed"

    def test_half_open_caps_inflight_probes_at_one(self):
        br = CircuitBreaker(threshold=1, cooldown_chunks=1)
        br.record_violation()
        br.tick()
        assert br.state == "half_open"
        assert br.allow_sparse()  # the single probe
        assert not br.allow_sparse()  # herd is held back
        assert not br.allow_sparse()
        br.record_success()  # probe resolved -> closed
        assert br.state == "closed" and br.allow_sparse()

    def test_half_open_probe_released_on_violation(self):
        br = CircuitBreaker(threshold=1, cooldown_chunks=1)
        br.record_violation()
        br.tick()
        assert br.allow_sparse() and not br.allow_sparse()
        assert br.record_violation()  # probe failed -> re-open
        assert br.state == "open" and not br.allow_sparse()
        br.tick()
        assert br.state == "half_open"
        assert br.allow_sparse()  # new probe slot after re-cooldown

    def test_half_open_abandoned_probe_reclaimed_by_tick(self):
        br = CircuitBreaker(threshold=1, cooldown_chunks=1)
        br.record_violation()
        br.tick()
        assert br.allow_sparse() and not br.allow_sparse()
        br.tick()  # chunk boundary: the unresolved probe is abandoned
        assert br.state == "half_open"
        assert br.allow_sparse()  # slot is free again

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_chunks=0)


class TestChaosRuns:
    """The engine under an actively hostile injector."""

    def chaos_engine(self, model, **kw):
        # Harsher than (and independent of) repro.serving.chaos_scenario.
        inj = FaultInjector(11, **{
            "p_attend_fault": 0.35,
            "max_transient_failures": 2,
            "p_plan_poison": 0.4,
            "p_latency_spike": 0.3,
            "p_straggler": 0.3,
        })
        kw.setdefault("fault_injector", inj)
        kw.setdefault("degrade_after", 2)
        kw.setdefault("breaker_threshold", 3)
        kw.setdefault("breaker_cooldown_chunks", 4)
        return make_engine(model, **kw)

    def test_all_requests_terminal_under_chaos(self, glm_mini):
        engine = self.chaos_engine(glm_mini, admission_policy="shed_oldest",
                                   max_queue=3, deadline_s=5.0)
        reqs = inject_admission_burst(
            burst(n=4, gap=0.02), seed=11, at=0.01, n=3
        )
        result = engine.run(reqs)
        assert check_recovery_invariants(result) == []
        for tm in result.requests:
            assert tm.outcome in TERMINAL_OUTCOMES
        assert result.summary()["faults_injected"] > 0

    def test_same_seed_bitwise_identical_summary(self, glm_mini):
        reqs = inject_admission_burst(
            burst(n=3, gap=0.02), seed=11, at=0.01, n=2
        )
        runs = [
            self.chaos_engine(glm_mini, deadline_s=5.0).run(list(reqs))
            for _ in range(2)
        ]
        s0, s1 = (r.summary() for r in runs)
        assert s0 == s1
        assert [t.as_dict() for t in runs[0].requests] == [
            t.as_dict() for t in runs[1].requests
        ]

    def test_transient_faults_recovered_by_retry(self, glm_mini):
        inj = FaultInjector(3, p_attend_fault=1.0, max_transient_failures=2)
        engine = make_engine(glm_mini, fault_injector=inj)
        result = engine.run(burst(n=1))
        tm = result.requests[0]
        assert tm.outcome == "completed"
        assert tm.retries > 0 and tm.faults_injected > 0
        summ = result.summary()
        assert summ["chunk_retries"] == tm.retries

    @pytest.mark.parametrize("batching", ["request", "packed"])
    def test_every_drawn_attend_fault_fires(self, glm_mini, batching):
        # Four-chunk prompts: a chunk before the final one attends at every
        # layer but the last, so its fault must be drawn among those.
        inj = FaultInjector(5, p_attend_fault=0.6, max_transient_failures=2)
        engine = make_engine(
            glm_mini, fault_injector=inj, batching=batching,
            scheduler="round_robin",
        )
        result = engine.run(burst(n=3))
        assert len(result.completed) == 3
        due = sum(
            inj.attend_failures(tm.request_id, chunk)
            for tm in result.requests
            for chunk in range(tm.n_chunks)
        )
        assert due > 0
        assert result.telemetry.counter("fault_attend_transient") == due
        assert result.summary()["chunk_retries"] == due

    def test_retry_exhaustion_sheds_request(self, glm_mini, monkeypatch):
        inj = FaultInjector(3, p_attend_fault=1.0, max_transient_failures=3)
        monkeypatch.setattr(engine_module, "MAX_RETRIES", 0)
        engine = make_engine(glm_mini, fault_injector=inj)
        result = engine.run(burst(n=1))
        tm = result.requests[0]
        assert tm.outcome == "shed"
        assert tm.degradation_level == "shed"
        assert tm.transitions[-1]["to"] == "shed"
        assert tm.transitions[-1]["reason"] == "retry_exhausted"
        assert check_recovery_invariants(result) == []

    def test_backoff_billed_to_virtual_clock(self, glm_mini, monkeypatch):
        reqs = burst(n=1)
        inj = FaultInjector(3, p_attend_fault=1.0, max_transient_failures=1)
        monkeypatch.setattr(engine_module, "RETRY_BACKOFF_S", 0.5)
        slow = make_engine(glm_mini, fault_injector=inj).run(reqs)
        monkeypatch.setattr(engine_module, "RETRY_BACKOFF_S", 0.0)
        fast = make_engine(glm_mini, fault_injector=inj).run(reqs)
        assert slow.requests[0].retries == fast.requests[0].retries > 0
        assert slow.requests[0].finish > fast.requests[0].finish + 0.4

    def test_deadline_exceeded_is_terminal(self, glm_mini):
        # A straggler multiplier large enough that queued requests blow
        # their deadline while the head request runs.
        inj = FaultInjector(0, p_straggler=1.0, straggler_multiplier=1e6)
        engine = make_engine(glm_mini, fault_injector=inj, deadline_s=0.5)
        result = engine.run(burst(n=3, gap=0.0))
        outcomes = [t.outcome for t in result.requests]
        assert "deadline_exceeded" in outcomes
        assert check_recovery_invariants(result) == []
        summ = result.summary()
        assert summ["n_deadline_exceeded"] == outcomes.count(
            "deadline_exceeded"
        )

    def test_no_deadline_no_expiry(self, glm_mini):
        inj = FaultInjector(0, p_straggler=1.0, straggler_multiplier=100.0)
        engine = make_engine(glm_mini, fault_injector=inj, deadline_s=None)
        result = engine.run(burst(n=2))
        assert all(t.outcome == "completed" for t in result.requests)

    def test_slow_chunk_inflates_virtual_clock_only(self, glm_mini):
        baseline = make_engine(glm_mini).run(burst(n=3))
        inj = FaultInjector(
            4, p_slow_chunk=0.8, slow_chunk_multiplier=5.0
        )
        slowed = make_engine(glm_mini, fault_injector=inj).run(burst(n=3))
        assert slowed.telemetry.counter("fault_slow_chunk") > 0
        for base_tm, slow_tm in zip(baseline.requests, slowed.requests):
            # identical semantics, only the clock stretched
            assert slow_tm.generated == base_tm.generated
            assert slow_tm.outcome == base_tm.outcome == "completed"
            assert sum(slow_tm.chunk_seconds) > sum(base_tm.chunk_seconds)


class TestPoisonRecovery:
    """Plan-cache corruption must be absorbed, never served."""

    class _Undercut(FaultInjector):
        """Every odd chunk poisons the cache with a structurally valid
        plan that lies about its CRA coverage."""

        def poison_mode(self, rid, chunk):
            return "share_undercut" if chunk % 2 == 1 else None

    class _Structural(FaultInjector):
        def poison_mode(self, rid, chunk):
            return "stripe_out_of_range" if chunk % 2 == 1 else None

    def test_semantic_poison_trips_cra_guard_and_ladder(self, glm_mini):
        engine = make_engine(
            glm_mini,
            fault_injector=self._Undercut(5, p_plan_poison=1.0),
            degrade_after=2,
            breaker_threshold=3,
            breaker_cooldown_chunks=2,
            length_scale=32,  # 8 chunks: enough to walk the ladder
        )
        result = engine.run(burst(n=1))
        tm = result.requests[0]
        summ = result.summary()
        assert tm.outcome == "completed"
        assert summ["cra_guard_violations"] > 0
        # Every guard trip was answered by a dense fallback.
        assert tm.cra_violations <= tm.plan_fallbacks
        assert check_recovery_invariants(result) == []
        # Repeated violations walked the ladder.
        assert tm.transitions
        levels = [tr["to"] for tr in tm.transitions]
        assert levels == sorted(levels, key=DEGRADATION_LEVELS.index)

    def test_structural_poison_caught_by_validation(self, glm_mini):
        engine = make_engine(
            glm_mini,
            fault_injector=self._Structural(5, p_plan_poison=1.0),
        )
        result = engine.run(burst(n=1))
        tm = result.requests[0]
        assert tm.outcome == "completed"
        # validate() at cache-get time catches it: the engine replans
        # instead of falling back, so no CRA violation is recorded.
        assert result.telemetry.counter("plan_cache_invalid") > 0
        assert result.summary()["cra_guard_violations"] == 0

    def test_breaker_trips_under_sustained_poison(self, glm_mini):
        class Always(FaultInjector):
            def poison_mode(self, rid, chunk):
                return "share_undercut"

        engine = make_engine(
            glm_mini,
            fault_injector=Always(5, p_plan_poison=1.0),
            degrade_after=100,  # keep the request on the sparse rung
            breaker_threshold=2,
            breaker_cooldown_chunks=2,
            length_scale=32,
        )
        summ = engine.run(burst(n=1)).summary()
        assert summ["circuit_breaker_trips"] >= 1
        assert summ["breaker_dense_chunks"] >= 1


class TestCorruptPlan:
    def test_unknown_mode_rejected(self, glm_mini):
        from repro.core import plan_sample_attention

        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 64, 16)).astype(np.float32)
        k = rng.standard_normal((2, 64, 16)).astype(np.float32)
        plan = plan_sample_attention(q, k)
        with pytest.raises(ConfigError):
            corrupt_plan(plan, "bitflip", rng)

    def test_mode_registry_covers_fault_kinds(self):
        assert set(FAULT_KINDS) == {
            "attend_transient",
            "plan_poison",
            "latency_spike",
            "straggler",
            "admission_burst",
            "arena_exhaustion",
            "slow_chunk",
            "worker_crash",
            "worker_stall",
            "heartbeat_loss",
        }
        assert len(CORRUPTION_MODES) == len(set(CORRUPTION_MODES))


class TestRegressions:
    def test_empty_run_summary_well_defined(self, glm_mini):
        """Regression: summarising a run with no requests must not raise."""
        result = make_engine(glm_mini).run([])
        summ = result.summary()
        assert summ["n_requests"] == 0
        assert summ["n_completed"] == 0
        assert summ["mean_ttft_s"] == 0.0
        assert summ["makespan_s"] == 0.0
        assert result.telemetry.to_markdown()

    def test_faultless_engine_unchanged(self, glm_mini):
        """No injector, no deadline: behaviour identical to the plain
        engine (robustness machinery must be inert by default)."""
        plain = make_engine(glm_mini).run(burst(n=2))
        summ = plain.summary()
        assert summ["faults_injected"] == 0
        assert summ["chunk_retries"] == 0
        assert summ["cra_guard_violations"] == 0
        assert summ["circuit_breaker_trips"] == 0
        assert all(not t.transitions for t in plain.requests)
        assert all(t.outcome == "completed" for t in plain.requests)
