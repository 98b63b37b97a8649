"""Tests for the fleet drill (multi-worker crash recovery + isolation)."""

import json
import os

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.drills import CRASH_FLOOR, run_chaos, run_fleet_drill


class TestRegistration:
    def test_fleet_experiment_registered(self):
        assert "fleet" in EXPERIMENTS

    def test_chaos_engine_env_guard(self, monkeypatch):
        # The guard is now the absence of the switch: one invocation runs
        # the single engine then the 2-worker fleet, whatever the retired
        # SAMPLEATTN_CHAOS_ENGINE variable says.
        monkeypatch.setenv("SAMPLEATTN_CHAOS_ENGINE", "mainframe")
        counters, audit, fleet_counters, fleet_audit = run_chaos(
            "quick", seed=0
        )
        assert "single engine" in counters.title
        assert "2-worker fleet" in fleet_counters.title
        for table in (counters, fleet_counters):
            rows = table.row_map("counter")
            assert rows["n_requests"][1] == len(audit.rows) == 9
            assert rows["faults_injected"][1] > 0
        assert sorted(audit.column("request_id")) == sorted(
            fleet_audit.column("request_id")
        )


class TestDrillReport:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fleetdrill") / "FLEET_drill.json"
        return run_fleet_drill("quick", seed=0, out_path=out), out

    def test_schema_and_json_roundtrip(self, report):
        rep, out = report
        assert rep["schema"] == "sampleattn-fleet-drill/v1"
        assert rep["n_workers"] == 3
        assert json.loads(out.read_text()) == rep

    def test_crash_recovery_gate(self, report):
        rec = report[0]["crash_recovery"]
        counters = rec["counters"]
        assert counters["fleet_worker_crashes"] >= CRASH_FLOOR
        assert counters["fleet_worker_restarts"] >= 1
        # every submitted request reached exactly one terminal outcome
        terminal = (
            counters["n_completed"]
            + counters["n_rejected"]
            + counters["n_shed"]
            + counters["n_deadline_exceeded"]
        )
        assert terminal == counters["n_requests"]
        assert counters["n_completed"] > 0

    def test_breaker_isolation_gate(self, report):
        iso = report[0]["breaker_isolation"]
        trips = iso["trips_per_worker"]
        dense = iso["breaker_dense_chunks_per_worker"]
        assert trips[iso["hot_worker"]] >= 1
        for wid in range(3):
            if wid != iso["hot_worker"]:
                assert trips[wid] == 0 and dense[wid] == 0

    def test_parity_gate(self, report):
        par = report[0]["single_engine_parity"]
        assert par["n_completed_single"] == par["n_completed_fleet"]
        assert "outcome" in par["parity_fields"]
        assert "cra_violations" in par["parity_fields"]

    def test_env_var_overrides_out_path(self, monkeypatch, tmp_path):
        target = tmp_path / "custom.json"
        monkeypatch.setenv("SAMPLEATTN_FLEETDRILL_OUT", str(target))
        rep = run_fleet_drill("quick", seed=0)
        assert target.exists()
        assert json.loads(target.read_text())["schema"] == rep["schema"]

    def test_empty_out_path_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SAMPLEATTN_FLEETDRILL_OUT", "")
        run_fleet_drill("quick", seed=0)
        assert not (tmp_path / "FLEET_drill.json").exists()
        assert not os.listdir(tmp_path)
