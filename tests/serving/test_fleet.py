"""Tests for the supervised multi-worker fleet.

Three layers, separable on purpose: the :class:`Supervisor` health state
machine and the :class:`Router` policies are tested without any engine;
the :class:`FleetEngine` tests then drive real glm-mini workers through
crashes, stalls, and heartbeat loss and assert the recovery contract the
fleet drill enforces -- every request terminal, zero lost, zero
duplicated, bitwise-deterministic from the seed, and per-worker breaker
state that never leaks across workers.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving import (
    FLEET_RUNGS,
    HEALTH_STATES,
    ROUTING_POLICIES,
    FaultInjector,
    FleetEngine,
    Request,
    Router,
    Supervisor,
    check_recovery_invariants,
)
from repro.serving import fleet as fleet_module
from repro.serving import supervisor as supervisor_module

# --------------------------------------------------------------- helpers


def burst(n, gap=0.05, prompt_len=8192, decode_tokens=2):
    return [
        Request(request_id=i, arrival=i * gap, prompt_len=prompt_len,
                decode_tokens=decode_tokens)
        for i in range(n)
    ]


def make_fleet(model, **kw):
    kw.setdefault("n_workers", 3)
    kw.setdefault("billing", "roofline")
    kw.setdefault("length_scale", 64)
    kw.setdefault("chunk_size", 64)
    kw.setdefault("seed", 0)
    kw.setdefault("max_queue", 8)
    kw.setdefault("admission_policy", "shed_oldest")
    return FleetEngine(model, **kw)


def result_digest(result):
    """Canonical bytes of a fleet result."""
    return json.dumps(result.to_dict(), sort_keys=True)


# ------------------------------------------------------------- supervisor


class TestSupervisor:
    def test_health_ladder_and_rehabilitation(self):
        sup = Supervisor(1)
        w = sup.workers[0]
        assert HEALTH_STATES == ("healthy", "suspect", "dead")
        assert sup.miss(0, 1.0) == "healthy"  # one miss tolerated
        assert sup.miss(0, 2.0) == "suspect"
        sup.heartbeat(0, 3.0)  # a single beat rehabilitates
        assert w.state == "healthy" and w.missed == 0
        for t in range(4):
            state = sup.miss(0, 4.0 + t)
        assert state == "dead" and sup.deaths == 1
        assert [tr["to"] for tr in w.transitions] == [
            "suspect", "healthy", "suspect", "dead"
        ]

    def test_miss_on_dead_worker_is_inert(self):
        sup = Supervisor(1)
        sup.declare_dead(0, 1.0, "crash")
        assert sup.miss(0, 2.0) == "dead"
        assert sup.deaths == 1  # no double-count

    def test_restart_backoff_doubles_and_budget_stops(self):
        sup = Supervisor(1, restart_backoff_s=0.5, max_restarts=2)
        assert sup.restart_delay(0) == 0.5
        sup.declare_dead(0, 1.0, "crash")
        assert sup.can_restart(0)
        sup.restarted(0, 1.5)
        assert sup.restart_delay(0) == 1.0
        sup.declare_dead(0, 2.0, "crash")
        sup.restarted(0, 3.0)
        assert sup.restart_delay(0) == 2.0
        sup.declare_dead(0, 4.0, "crash")
        assert not sup.can_restart(0)
        sup.stop(0, 4.0)
        assert sup.workers[0].stopped and sup.n_live() == 0
        assert not sup.available(0)
        sup.stop(0, 5.0)  # idempotent
        assert sup.stats()["n_stopped"] == 1

    def test_availability_counts(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "SUSPECT_MISSES", 1)
        sup = Supervisor(3)
        assert sup.n_available() == sup.n_live() == 3
        sup.miss(0, 1.0)  # suspect: not available, still live
        assert sup.n_available() == 2 and sup.n_live() == 3
        sup.declare_dead(1, 1.0, "crash")
        assert sup.n_available() == 1 and sup.n_live() == 3
        sup.stop(1, 2.0)
        assert sup.n_live() == 2

    def test_rejects_bad_config(self):
        for kw in (
            {"heartbeat_interval_s": 0.0},
            {"restart_backoff_s": -1.0},
            {"max_restarts": -1},
        ):
            with pytest.raises(ConfigError):
                Supervisor(2, **kw)
        with pytest.raises(ConfigError):
            Supervisor(0)


# ----------------------------------------------------------------- router


class TestRouter:
    def test_least_loaded_breaks_ties_by_id(self):
        r = Router(3)
        assert r.route(Request(0, 0.0, 64, 1), [0.5, 0.2, 0.2]) == 1
        assert r.route(Request(1, 0.0, 64, 1), [0.0, 0.0, 0.0]) == 0
        assert r.route(Request(2, 0.0, 64, 1), [None, 0.9, None]) == 1
        assert r.route(Request(3, 0.0, 64, 1), [None, None, None]) is None

    def test_prefix_affinity_is_deterministic_and_falls_back(self):
        r = Router(3, policy="prefix_affinity", block_tokens=4)
        tokens = np.arange(16, dtype=np.int64)
        home = r._home_worker(tokens)
        assert home == r._home_worker(tokens)  # pure function of prefix
        req = Request(0, 0.0, 64, 1)
        loads = [0.0, 0.0, 0.0]
        assert r.route(req, loads, tokens=tokens) == home
        loads[home] = None  # home busy -> least loaded
        pick = r.route(req, loads, tokens=tokens)
        assert pick is not None and pick != home
        assert r.affinity_hits == 1 and r.affinity_fallbacks == 1
        # prompts shorter than one block have no home
        assert r._home_worker(np.arange(2, dtype=np.int64)) is None

    def test_sticky_pins_and_rehomes(self):
        r = Router(3, policy="sticky", session_of=lambda req: "s")
        req = Request(0, 0.0, 64, 1)
        first = r.route(req, [0.3, 0.1, 0.2])
        assert first == 1
        assert r.route(req, [0.0, 0.4, 0.0]) == 1  # pinned beats load
        moved = r.route(req, [0.0, None, 0.0])  # pin unavailable
        assert moved == 0
        assert r.route(req, [0.5, 0.4, 0.5]) == 0  # re-pinned
        assert r.affinity_hits == 2 and r.affinity_fallbacks == 1

    def test_rung_ladder_and_admission_capacity(self):
        r = Router(4)
        assert FLEET_RUNGS == ("normal", "reroute", "brownout", "shed")
        assert r.update_rung(4, 4, 0.0) == "normal"
        assert r.admission_capacity(10) == 10
        assert r.update_rung(3, 4, 1.0) == "reroute"
        assert r.admission_capacity(10) == 10
        assert r.update_rung(2, 4, 2.0) == "brownout"
        assert r.admission_capacity(10) == 5
        assert r.admission_capacity(1) == 1  # floored, never zero
        assert r.update_rung(0, 0, 3.0) == "shed"
        assert r.admission_capacity(10) == 0
        assert [t["to"] for t in r.rung_transitions] == [
            "reroute", "brownout", "shed"
        ]

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            Router(0)
        with pytest.raises(ConfigError):
            Router(2, policy="round_robin")
        with pytest.raises(ConfigError):
            Router(2, block_tokens=0)
        with pytest.raises(ConfigError):
            Router(2).route(Request(0, 0.0, 64, 1), [0.0])


# ----------------------------------------------------------- fleet engine


class TestFleetServing:
    def test_faultless_fleet_completes_and_spreads_load(self, glm_mini):
        fleet = make_fleet(glm_mini)
        result = fleet.run(burst(6))
        summ = result.summary()
        assert summ["n_requests"] == summ["n_completed"] == 6
        assert check_recovery_invariants(result) == []
        assert sum(w["executions"] for w in result.workers) == 6
        assert all(w["executions"] > 0 for w in result.workers)
        assert result.fleet["supervisor"]["deaths"] == 0
        assert result.fleet["router"]["rung"] == "normal"
        assert result.telemetry.counter("fleet_admitted") == 6

    def test_same_seed_bitwise_identical(self, glm_mini):
        def run():
            inj = FaultInjector(
                7, p_worker_crash=0.3, p_worker_stall=0.15,
                p_heartbeat_loss=0.05, p_attend_fault=0.2,
                p_latency_spike=0.2,
            )
            fleet = make_fleet(
                glm_mini, fault_injector=inj, deadline_s=30.0,
                heartbeat_interval_s=0.02, restart_backoff_s=0.02,
            )
            return fleet.run(burst(8, gap=0.03))

        assert result_digest(run()) == result_digest(run())

    def test_crashes_recovered_zero_lost_zero_duplicated(self, glm_mini):
        inj = FaultInjector(7, p_worker_crash=0.35)
        fleet = make_fleet(
            glm_mini, fault_injector=inj, deadline_s=30.0,
            heartbeat_interval_s=0.02, restart_backoff_s=0.02,
        )
        reqs = burst(10)
        result = fleet.run(reqs)
        tms = result.requests
        assert sorted(t.request_id for t in tms) == [r.request_id for r in reqs]
        assert all(t.outcome == "completed" for t in tms)
        assert result.telemetry.counter("fleet_worker_crashes") >= 3
        assert result.telemetry.counter("fleet_redispatches") >= 3
        assert result.telemetry.counter("completed") == 10  # exactly once each
        assert result.fleet["supervisor"]["restarts"] >= 1
        assert check_recovery_invariants(result) == []

    def test_redispatch_budget_exhaustion_sheds(self, glm_mini, monkeypatch):
        inj = FaultInjector(0, p_worker_crash=1.0)  # every execution dies
        monkeypatch.setattr(fleet_module, "MAX_REDISPATCH", 0)
        fleet = make_fleet(
            glm_mini, n_workers=2, fault_injector=inj,
            heartbeat_interval_s=0.02, restart_backoff_s=0.02,
        )
        result = fleet.run(burst(4))
        assert all(t.outcome in ("shed", "rejected") for t in result.requests)
        assert result.telemetry.counter("fleet_redispatch_exhausted") >= 1
        assert check_recovery_invariants(result) == []

    def test_fleet_collapse_stops_workers_and_sheds(self, glm_mini, monkeypatch):
        inj = FaultInjector(0, p_worker_crash=1.0)
        monkeypatch.setattr(fleet_module, "MAX_REDISPATCH", 5)
        fleet = make_fleet(
            glm_mini, fault_injector=inj, max_restarts=0,
            heartbeat_interval_s=0.02,
        )
        result = fleet.run(burst(8))
        summ = result.summary()
        assert summ["n_completed"] == 0
        assert summ["n_requests"] == 8  # nothing lost even in collapse
        assert result.fleet["router"]["rung"] == "shed"
        assert result.telemetry.counter("fleet_workers_stopped") == 3
        assert result.fleet["supervisor"]["n_stopped"] == 3
        assert check_recovery_invariants(result) == []

    def test_stall_death_fences_zombie_completions(self, glm_mini, monkeypatch):
        inj = FaultInjector(
            3, p_worker_stall=0.5, worker_stall_multiplier=50000.0
        )
        monkeypatch.setattr(fleet_module, "MAX_REDISPATCH", 4)
        monkeypatch.setattr(supervisor_module, "SUSPECT_MISSES", 1)
        monkeypatch.setattr(supervisor_module, "DEAD_MISSES", 2)
        fleet = make_fleet(
            glm_mini, fault_injector=inj,
            heartbeat_interval_s=0.001, restart_backoff_s=0.001,
        )
        reqs = burst(8, gap=0.002)
        result = fleet.run(reqs)
        tms = result.requests
        assert sorted(t.request_id for t in tms) == [r.request_id for r in reqs]
        assert result.telemetry.counter("fleet_heartbeat_deaths") >= 1
        # false-positive deaths: the stalled incarnation was alive, its
        # late completion must be fenced, not double-delivered
        assert result.telemetry.counter("fleet_stale_completions_fenced") >= 1
        n_done = sum(t.outcome == "completed" for t in tms)
        assert result.telemetry.counter("completed") == n_done
        assert check_recovery_invariants(result) == []

    def test_deadline_budget_travels_with_redispatch(self, glm_mini):
        inj = FaultInjector(1, p_worker_crash=0.4)
        fleet = make_fleet(
            glm_mini, fault_injector=inj, deadline_s=0.05,
            heartbeat_interval_s=0.01, restart_backoff_s=0.1,
        )
        result = fleet.run(burst(8, gap=0.01))
        for tm in result.requests:
            assert tm.outcome in (
                "completed", "shed", "rejected", "deadline_exceeded"
            )
            if tm.outcome == "completed":
                assert tm.finish - tm.arrival <= 0.05 + 1e-9
        assert check_recovery_invariants(result) == []


class TestFleetRouting:
    def test_sticky_sessions_stay_on_one_worker(self, glm_mini):
        fleet = make_fleet(
            glm_mini, routing_policy="sticky", session_of=lambda r: "all",
        )
        result = fleet.run(burst(5, gap=1.0))  # gap >> service time
        served = [w["executions"] for w in result.workers]
        assert sorted(served, reverse=True)[0] == 5
        assert sum(1 for n in served if n > 0) == 1
        assert result.fleet["router"]["affinity_hits"] == 4

    def test_prefix_affinity_groups_shared_prefixes(self, glm_mini):
        def builder(request, n):
            return np.arange(n, dtype=np.int64)  # one shared prefix

        fleet = make_fleet(
            glm_mini, routing_policy="prefix_affinity",
            prompt_builder=builder,
        )
        result = fleet.run(burst(5, gap=1.0))
        served = [w["executions"] for w in result.workers]
        assert sorted(served, reverse=True)[0] == 5
        assert result.fleet["router"]["affinity_hits"] == 5


class TestPerWorkerBreaker:
    def test_breaker_trips_stay_on_the_poisoned_worker(self, glm_mini):
        class PoisonSome(FaultInjector):
            """Semantic poison rides with request ids 0 mod 3."""

            def poison_mode(self, rid, chunk):
                return "share_undercut" if rid % 3 == 0 else None

        fleet = make_fleet(
            glm_mini,
            routing_policy="sticky",
            session_of=lambda r: (
                "hot" if r.request_id % 3 == 0 else f"c{r.request_id}"
            ),
            fault_injector=PoisonSome(5, p_plan_poison=1.0),
            length_scale=32,
            degrade_after=100,  # keep requests on the sparse rung
            breaker_threshold=2,
            breaker_cooldown_chunks=2,
        )
        result = fleet.run(burst(9, gap=1.0))
        assert all(t.outcome == "completed" for t in result.requests)
        trips = [
            w["counters"].get("circuit_breaker_trips", 0.0)
            for w in result.workers
        ]
        dense = [
            w["counters"].get("breaker_dense_chunks", 0.0)
            for w in result.workers
        ]
        tripped = [i for i, n in enumerate(trips) if n > 0]
        assert len(tripped) == 1  # exactly the sticky "hot" worker
        hot = tripped[0]
        for wid in range(3):
            if wid != hot:
                # a clean worker never pays the poisoned worker's dues
                assert trips[wid] == 0 and dense[wid] == 0
        assert result.telemetry.counter("circuit_breaker_trips") == trips[hot]
        assert result.telemetry.counter("breaker_dense_chunks") == dense[hot]


class TestFleetConfig:
    def test_rejects_bad_config(self, glm_mini):
        for kw in (
            {"n_workers": 0},
            {"routing_policy": "round_robin"},
            {"max_queue": 0},
            {"deadline_s": 0.0},
        ):
            with pytest.raises(ConfigError):
                FleetEngine(glm_mini, **kw)

    def test_routing_policies_registry(self):
        assert ROUTING_POLICIES == (
            "least_loaded", "prefix_affinity", "sticky"
        )

    def test_fleet_owned_kwargs_not_forwardable(self, glm_mini):
        # fault_injector/deadline_s bind at the fleet level by name; the
        # engine kwargs the workers receive must not contain them
        fleet = make_fleet(glm_mini, deadline_s=1.0)
        assert "deadline_s" not in fleet.engine_kwargs
        assert "fault_injector" not in fleet.engine_kwargs
