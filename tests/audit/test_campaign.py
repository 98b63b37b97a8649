"""Tests for the audit campaign runner and its AUDIT.json report."""

import json

import pytest

import repro.audit.campaign as campaign
from repro.audit import contracts
from repro.audit.campaign import AUDIT_SCHEMA, run_audit, run_audit_experiment
from repro.audit import AUDIT_AREAS, CaseResult
from repro.errors import ReproError
from repro.harness.tables import Table


@pytest.fixture(autouse=True)
def _contracts_off_after():
    yield
    contracts.disable()


class TestPassingCampaign:
    def test_tiny_budget_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "AUDIT.json"
        report = run_audit(seeds=(0,), budget=6, out_path=out)
        assert report["schema"] == AUDIT_SCHEMA
        assert report["passed"] is True
        assert report["n_geometries"] == 6
        assert report["failed_cases"] == 0
        assert report["contract_violations"] == 0
        assert report["contract_checks"] > 0  # hooks fired under the campaign
        assert report["worst_divergence"] <= report["tolerance"]
        assert set(report["areas"]) == set(AUDIT_AREAS)
        for area in report["areas"].values():
            assert area["cases"] == 6
            assert area["failed"] == 0
            assert area["counterexamples"] == []
            assert area["banded_checks"] <= area["checks"]
            assert area["dense_checks"] <= area["checks"]
        assert report["areas"]["packed"]["banded_checks"] > 0
        assert report["areas"]["packed"]["dense_checks"] > 0
        assert report["areas"]["packed_decode"]["long_decode_checks"] > 0
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        assert on_disk == report

    def test_env_var_controls_out_path(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env.json"
        monkeypatch.setenv("SAMPLEATTN_AUDIT_OUT", str(out))
        run_audit(seeds=(0,), budget=2)
        assert out.exists()

    def test_empty_out_path_disables_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SAMPLEATTN_AUDIT_OUT", "")
        run_audit(seeds=(0,), budget=2)
        assert not (tmp_path / "AUDIT.json").exists()

    def test_area_subset_and_unknown_area(self, tmp_path):
        report = run_audit(
            seeds=(0,), budget=3, areas=("kernels",), out_path=tmp_path / "a.json"
        )
        assert list(report["areas"]) == ["kernels"]
        with pytest.raises(ReproError, match="unknown audit areas"):
            run_audit(seeds=(0,), budget=1, areas=("bogus",))

    def test_contracts_restored_after_campaign(self, tmp_path):
        assert not contracts.enabled()
        run_audit(seeds=(0,), budget=2, out_path=tmp_path / "a.json")
        assert not contracts.enabled()


class TestFailingCampaign:
    def test_planted_divergence_fails_and_records_counterexample(
        self, tmp_path, monkeypatch
    ):
        real_run_case = campaign.run_case

        def bad_run_case(case, area):
            if area == "packed":
                return CaseResult(area, False, 1e-3, "planted divergence")
            return real_run_case(case, area)

        monkeypatch.setattr(campaign, "run_case", bad_run_case)
        out = tmp_path / "AUDIT.json"
        # The error names the first failing case as a re-runnable call.
        with pytest.raises(ReproError, match=r"first: run_case\(GeometryCase"):
            run_audit(seeds=(0,), budget=3, out_path=out)
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert report["failed_cases"] == 3
        assert report["worst_divergence"] == pytest.approx(1e-3)
        packed = report["areas"]["packed"]
        assert packed["failed"] == 3
        ce = packed["counterexamples"][0]
        assert ce["detail"] == "planted divergence"
        # A counterexample carries the case's fields, which determine it.
        assert {"seed", "s_q", "s_k", "window"} <= set(ce["case"])
        assert report["areas"]["kernels"]["failed"] == 0

    def test_counterexamples_are_capped(self, tmp_path, monkeypatch):
        def bad_run_case(case, area):
            return CaseResult(area, False, float("inf"), "synthetic")

        monkeypatch.setattr(campaign, "run_case", bad_run_case)
        out = tmp_path / "AUDIT.json"
        with pytest.raises(ReproError):
            run_audit(seeds=(0,), budget=12, areas=("kernels",), out_path=out)
        kernels = json.loads(out.read_text(encoding="utf-8"))["areas"]["kernels"]
        assert kernels["failed"] == 12  # every failure is still counted
        assert len(kernels["counterexamples"]) == campaign.MAX_COUNTEREXAMPLES

    def test_contract_violation_fails_campaign(self, tmp_path, monkeypatch):
        from repro.errors import ContractViolation

        def violating_run_case(case, area):
            raise ContractViolation("planted contract breach")

        monkeypatch.setattr(campaign, "run_case", violating_run_case)
        out = tmp_path / "AUDIT.json"
        with pytest.raises(ReproError, match="contract violations"):
            run_audit(seeds=(0,), budget=1, areas=("kernels",), out_path=out)
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["contract_violations"] == 1
        assert "planted contract breach" in report["contract_violation_messages"][0]


def _fake_run_audit(calls):
    """A ``run_audit`` stand-in recording its arguments in ``calls``."""

    def fake(*, seeds, budget):
        calls["seeds"], calls["budget"] = seeds, budget
        return {
            "schema": AUDIT_SCHEMA,
            "seeds": list(seeds),
            "budget": budget,
            "tolerance": 2e-5,
            "n_geometries": len(seeds) * budget,
            "contract_checks": 1,
            "contract_violations": 0,
            "areas": {
                "kernels": {
                    "area": "kernels",
                    "cases": 1,
                    "passed": 1,
                    "failed": 0,
                    "checks": 4,
                    "worst_divergence": 0.0,
                }
            },
        }

    return fake


class TestExperimentWrapper:
    def test_quick_scale_returns_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAMPLEATTN_AUDIT_OUT", str(tmp_path / "a.json"))
        calls = {}
        monkeypatch.setattr(campaign, "run_audit", _fake_run_audit(calls))
        tables = run_audit_experiment("quick", seed=7)
        assert calls["seeds"] == (7, 8)
        assert calls["budget"] == campaign.DEFAULT_BUDGET
        assert len(tables) == 1 and isinstance(tables[0], Table)

    def test_full_scale_uses_nightly_budget(self, monkeypatch):
        calls = {}
        monkeypatch.setattr(campaign, "run_audit", _fake_run_audit(calls))
        run_audit_experiment("full", seed=0)
        assert calls["seeds"] == (0, 1, 2, 3)
        assert calls["budget"] == 512

    def test_registered_in_harness_experiments(self):
        from repro.harness.experiments import EXPERIMENTS

        assert "audit" in EXPERIMENTS
