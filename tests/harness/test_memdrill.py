"""Tests for the memory drill (paged-KV capacity + pressure recovery)."""

import json

import pytest

from repro.errors import ReproError
from repro.harness.experiments import EXPERIMENTS
from repro.harness.drills import (
    CAPACITY_GAIN_FLOOR,
    run_memory,
    run_memory_drill,
    session_capacity,
)


class TestRegistration:
    def test_memory_experiment_registered(self):
        assert "memory" in EXPERIMENTS


class TestSessionCapacity:
    def test_sharing_beats_contiguous_by_floor(self):
        cap = session_capacity()
        assert cap["paged_sessions"] > cap["contiguous_sessions"] > 0
        assert cap["capacity_gain"] >= CAPACITY_GAIN_FLOOR
        assert cap["shared_blocks_at_peak"] > 0

    def test_deterministic(self):
        assert session_capacity(seed=3) == session_capacity(seed=3)

    def test_small_prefix_yields_small_gain(self):
        # With only one shareable block per layer, most of each session
        # is private tail and the gain stays below the drill's floor.
        cap = session_capacity(
            prefix_tokens=16, suffix_tokens=24, block_tokens=16
        )
        assert cap["registered_prefix_blocks"] == 1
        assert 1.0 <= cap["capacity_gain"] < CAPACITY_GAIN_FLOOR


class TestDrillReport:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("memdrill") / "MEMORY_drill.json"
        return run_memory_drill("quick", seed=0, out_path=out), out

    def test_schema_and_json_roundtrip(self, report):
        rep, out = report
        assert rep["schema"] == "sampleattn-memory-drill/v1"
        assert json.loads(out.read_text()) == rep

    def test_capacity_gate_recorded(self, report):
        rep, _ = report
        assert rep["capacity_gain_floor"] == CAPACITY_GAIN_FLOOR
        assert rep["capacity"]["capacity_gain"] >= CAPACITY_GAIN_FLOOR

    def test_engine_sharing_gate(self, report):
        sharing = report[0]["engine_sharing"]
        assert sharing["n_completed"] > 0
        assert sharing["prefix_cache_hits"] >= 1
        assert sharing["arena_peak_bytes"] < (
            sharing["aggregate_contiguous_kv_bytes"]
        )

    def test_pressure_recovery_gate(self, report):
        rec = report[0]["pressure_recovery"]
        counters = rec["counters"]
        assert counters["arena_exhaustion_events"] > 0
        # Lossless relief: every request completes, none is shed, and
        # every exhaustion was relieved (by the registry rung).
        assert counters["n_completed"] == counters["n_requests"]
        assert counters["memory_sheds"] == 0
        assert (
            counters["memory_pressure_relief"]
            == counters["arena_exhaustion_events"]
        )
        assert rec["arena"]["blocks_in_use"] == 0  # leak-free

    @pytest.mark.parametrize(
        "counter, value, match",
        [
            ("n_completed", 8, "completed 8 of 9"),
            ("memory_sheds", 1, "shed 1"),
            ("memory_pressure_relief", 7, "relieved 7 of 8"),
        ],
    )
    def test_pressure_recovery_enforced(
        self, monkeypatch, counter, value, match
    ):
        import repro.harness.drills as md

        counters = md._counters

        def doctored(result, keys):
            return dict(counters(result, keys), **{counter: value})

        monkeypatch.setattr(md, "_counters", doctored)
        model = md.build_model(md._MODEL)
        with pytest.raises(ReproError, match=match):
            md._pressure_recovery_gate(model, 0, True)

    def test_capacity_floor_enforced(self, monkeypatch):
        import repro.harness.drills as md

        def tiny_capacity(**kw):
            return dict(
                session_capacity(**kw), capacity_gain=1.0
            )

        monkeypatch.setattr(md, "session_capacity", tiny_capacity)
        with pytest.raises(ReproError, match="floor"):
            md.run_memory_drill("quick", seed=0, out_path="")

    def test_rendered_tables_report_where_the_json_went(
        self, monkeypatch, tmp_path
    ):
        # Defect fixed with the fold: the renderer used to print the
        # default file name even when writing was disabled.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SAMPLEATTN_MEMDRILL_OUT", "")
        tables = run_memory("quick", seed=0)
        assert [t.title.split(":")[0] for t in tables] == [
            f"Memory drill gate {i}" for i in (1, 2, 3)
        ]
        assert "JSON not written" in tables[-1].notes
        assert not list(tmp_path.iterdir())
        target = tmp_path / "custom.json"
        monkeypatch.setenv("SAMPLEATTN_MEMDRILL_OUT", str(target))
        assert str(target) in run_memory("quick", seed=0)[-1].notes
        assert target.exists()
