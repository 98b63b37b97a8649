"""The robustness stack says each thing once.

Two properties of :mod:`repro.harness.drills` the per-drill tests cannot
see: every drill's adversary is a *stated diff* against the one chaos
scenario (so a fork that re-types it fails here), and the shared
``serve_twice`` protocol actually catches what it claims to -- checked the
way ``TestPackedGateCatchesSeededMutations`` checks the packed gate, by
seeding one mutation per claim into an otherwise healthy server.
"""

import re
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.harness.drills import (
    fleet_adversary,
    memory_adversary,
    serve_twice,
)
from repro.serving import FaultInjector, ServingEngine, chaos_scenario

ROOT = Path(__file__).resolve().parents[2]


def _diff(base: FaultInjector, variant: FaultInjector) -> dict:
    before, after = base.as_dict(), variant.as_dict()
    assert list(before) == list(after)
    return {k: after[k] for k in after if after[k] != before[k]}


class TestOneScenario:
    def test_scenario_is_a_function_of_seed_and_scale(self):
        a, b = chaos_scenario(3), chaos_scenario(3)
        assert a.requests == b.requests
        assert a.injector.as_dict() == b.injector.as_dict()
        assert a.engine_kwargs == b.engine_kwargs
        assert chaos_scenario(4).requests != a.requests
        full = chaos_scenario(3, quick=False)
        assert len(full.requests) > len(a.requests)
        assert full.engine_kwargs["length_scale"] == 16
        assert (a.max_queue, a.admission_policy, a.deadline_s) == (
            6, "shed_oldest", 4.0
        )
        # the front-door keys never hide inside the worker configuration
        assert not {"max_queue", "deadline_s", "fault_injector"} & set(
            a.engine_kwargs
        )
        assert set(a.serving_kwargs()) == set(a.engine_kwargs) | {
            "max_queue", "admission_policy", "deadline_s", "fault_injector"
        }

    def test_memory_adversary_is_a_stated_diff(self):
        base = chaos_scenario(0).injector
        assert _diff(base, memory_adversary(base)) == {
            "p_slow_chunk": 0.0,
            "p_arena_exhaustion": 0.2,
            "exhaustion_fraction": 0.5,
        }

    def test_fleet_adversary_is_a_stated_diff(self):
        base = chaos_scenario(0).injector
        assert _diff(base, fleet_adversary(base)) == {
            "p_worker_crash": 0.25,
            "p_worker_stall": 0.1,
            "p_heartbeat_loss": 0.05,
        }

    def test_the_adversary_literal_is_typed_once(self):
        literal = re.compile(r"p_attend_fault\s*=\s*0\.3\b")
        hits = [
            str(path.relative_to(ROOT))
            for top in ("src", "examples", "tests")
            for path in sorted((ROOT / top).rglob("*.py"))
            if literal.search(path.read_text(encoding="utf-8"))
        ]
        assert hits == ["src/repro/serving/faults.py"]


class TestServeTwiceCatchesSeededMutations:
    """One healthy server, one seeded defect per protocol claim; each
    must be caught."""

    @pytest.fixture(scope="class")
    def serve(self, glm_mini):
        scenario = chaos_scenario(0)
        kwargs = dict(
            scenario.serving_kwargs(),
            fault_injector=memory_adversary(scenario.injector),
            kv_backend="paged",
        )

        def serve():
            engine = ServingEngine(glm_mini, **kwargs)
            return engine.run(list(scenario.requests))

        return serve, scenario.requests

    def test_healthy_server_passes(self, serve):
        run, requests = serve
        result = serve_twice("healthy", run, requests)
        assert result.memory["arena"]["blocks_in_use"] == 0
        assert len(result.requests) == len(requests)

    def test_wall_clock_in_the_summary_is_caught(self, serve):
        run, requests = serve

        def leaky():
            result = run()
            result.telemetry.inc("chunk_retries", time.perf_counter())
            return result

        assert leaky().summary() != leaky().summary()
        with pytest.raises(ReproError, match="not deterministic"):
            serve_twice("mutant", leaky, requests)

    def test_wall_clock_outside_the_summary_is_caught_too(self, serve):
        # The bar is the canonical record, not ``summary()``: a timing
        # series never reaches the summary, and still fails the drill.
        run, requests = serve

        def leaky():
            result = run()
            result.telemetry.observe("chunk_wall_s", time.perf_counter())
            return result

        assert leaky().summary() == leaky().summary()
        with pytest.raises(ReproError, match="not deterministic"):
            serve_twice("mutant", leaky, requests)

    def test_dropped_request_is_caught(self, serve):
        run, requests = serve

        def lossy():
            result = run()
            result.telemetry.requests.pop()
            return result

        with pytest.raises(ReproError, match="lost or invented"):
            serve_twice("mutant", lossy, requests)

    def test_leaked_arena_block_is_caught(self, serve):
        run, requests = serve

        def leaky():
            result = run()
            result.memory["arena"]["blocks_in_use"] += 1
            return result

        with pytest.raises(ReproError, match="leaked 1 arena blocks"):
            serve_twice("mutant", leaky, requests)

    def test_unanswered_cra_violation_is_caught(self, serve):
        run, requests = serve

        def lossy():
            result = run()
            tm = next(t for t in result.requests if t.outcome == "completed")
            tm.cra_violations = tm.plan_fallbacks + 1
            return result

        with pytest.raises(ReproError, match="recovery invariants"):
            serve_twice("mutant", lossy, requests)
