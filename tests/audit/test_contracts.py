"""Tests for the opt-in runtime invariant-contract layer."""

import numpy as np
import pytest

from repro.attention import fast_block_sparse_attention
from repro.attention.masks import causal_block_mask
from repro.attention.utils import KernelWorkspace
from repro.audit import contracts
from repro.config import SampleAttentionConfig
from repro.core import plan_sample_attention, select_kv_indices
from repro.errors import ContractViolation, MaskError, ReproError
from repro.serving.telemetry import MetricsRegistry
from tests.conftest import random_qkv


@pytest.fixture(autouse=True)
def _contracts_off_after():
    yield
    contracts.disable()


class TestEnablement:
    def test_disabled_by_default(self):
        assert not contracts.enabled()

    def test_enable_disable(self):
        contracts.enable()
        assert contracts.enabled()
        contracts.disable()
        assert not contracts.enabled()

    def test_scoped_context_restores(self):
        assert not contracts.enabled()
        with contracts.contracts():
            assert contracts.enabled()
            with contracts.contracts(False):
                assert not contracts.enabled()
            assert contracts.enabled()
        assert not contracts.enabled()

    def test_checks_are_noops_when_disabled(self):
        before = contracts.checks_run()
        contracts.check_counter_increment("x", -5.0)  # would violate
        contracts.check_selection(
            [np.array([3, 1])], np.array([0.0]), 0.9, 4
        )  # unsorted: would violate
        assert contracts.checks_run() == before

    def test_violation_is_repro_and_assertion_error(self):
        assert issubclass(ContractViolation, ReproError)
        assert issubclass(ContractViolation, AssertionError)


class TestSelectionContract:
    def test_accepts_valid_selection(self):
        with contracts.contracts():
            contracts.check_selection(
                [np.array([0, 2, 5])], np.array([0.97]), 0.95, 8
            )

    def test_rejects_unsorted(self):
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_selection(
                [np.array([5, 2])], np.array([1.0]), 0.95, 8
            )

    def test_rejects_duplicates(self):
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_selection(
                [np.array([2, 2])], np.array([1.0]), 0.95, 8
            )

    def test_rejects_out_of_range(self):
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_selection(
                [np.array([0, 8])], np.array([1.0]), 0.95, 8
            )

    def test_rejects_share_below_alpha(self):
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_selection(
                [np.array([0])], np.array([0.5]), 0.95, 8
            )

    def test_dead_head_zero_share_allowed(self):
        with contracts.contracts():
            contracts.check_selection(
                [np.array([0])], np.array([0.0]), 0.95, 8
            )

    def test_hooked_into_select_kv_indices(self, rng):
        scores = rng.random((3, 32)).astype(np.float64)
        with contracts.contracts():
            before = contracts.checks_run()
            select_kv_indices(scores, 0.9)
            assert contracts.checks_run() > before


class TestPlanAndMaskContracts:
    def test_plan_hook_passes_on_real_plans(self, rng):
        q, k, _ = random_qkv(rng, h=4, s=96, d=8, h_kv=2)
        with contracts.contracts():
            plan = plan_sample_attention(
                q, k, SampleAttentionConfig(alpha=0.9, block_size=16)
            )
            # Merged-mask contract fires on rasterisation.
            before = contracts.checks_run()
            plan.to_block_mask()
            assert contracts.checks_run() > before

    def test_merged_mask_must_cover_window_band(self, rng):
        q, k, _ = random_qkv(rng, h=1, s=64, d=8)
        plan = plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=0.9, block_size=16)
        )
        mask = plan.to_block_mask()
        holed = mask.blocks.copy()
        holed[:, -1, -1] = False  # punch out a diagonal (window) tile
        bad = type(mask)(holed, mask.block_size, mask.s_q, mask.s_k)
        with contracts.contracts(), pytest.raises((ContractViolation, MaskError)):
            contracts.check_merged_mask(plan, bad)


class TestComputedElementsContract:
    def test_kernel_count_equals_the_plans_bands_executed(self, rng):
        import dataclasses

        from repro.attention.packed import PackedItem, packed_block_sparse_attention

        q, k, v = random_qkv(rng, h=4, s=96, d=8, h_kv=2)
        plan = plan_sample_attention(
            q, k, SampleAttentionConfig(alpha=0.9, block_size=16)
        )
        banded = dataclasses.replace(plan, extras={"bands": [(40, 44)]})
        got = packed_block_sparse_attention(
            [PackedItem.from_plan(q, k, v, banded)]
        ).results[0].computed_elements
        assert (got > plan.element_counts()).all()  # the band is executed
        with contracts.contracts():
            contracts.check_computed_elements(banded, got)
            with pytest.raises(ContractViolation, match="score elements"):
                contracts.check_computed_elements(banded, got - 1)
            with pytest.raises(ContractViolation, match="score elements"):
                contracts.check_computed_elements(plan, got)

    def test_hooked_into_the_engines_packed_dispatch(self, monkeypatch):
        from repro.model import build_model
        from repro.serving import Request, ServingEngine

        seen = []
        real = contracts.check_computed_elements
        monkeypatch.setattr(
            contracts,
            "check_computed_elements",
            lambda plan, computed: (seen.append(plan), real(plan, computed)),
        )
        engine = ServingEngine(
            build_model("glm-mini"), method="sample", chunk_size=64
        )
        with contracts.contracts():
            result = engine.run([Request(0, 0.0, 160, 1)])
        assert result.requests[0].outcome == "completed"
        assert len(seen) == result.telemetry.counter("kernel_packed_requests") > 0


class TestNoAliasContract:
    def test_fast_path_passes(self, rng):
        q, k, v = random_qkv(rng, h=2, s=64, d=8)
        mask = causal_block_mask(2, 64, 64, 16)
        with contracts.contracts():
            before = contracts.checks_run()
            fast_block_sparse_attention(q, k, v, mask)
            assert contracts.checks_run() > before

    def test_detects_aliased_workspace_buffer(self, rng):
        q, k, v = random_qkv(rng, h=1, s=16, d=4)
        ws = KernelWorkspace()
        ws._buffers["scores"] = q.reshape(-1)  # deliberately alias q
        out = np.zeros_like(q)
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_no_alias(out, ws, q, k, v)

    def test_detects_output_aliasing_input(self, rng):
        q, k, v = random_qkv(rng, h=1, s=16, d=4)
        with contracts.contracts(), pytest.raises(ContractViolation):
            contracts.check_no_alias(q[:, :4], None, q, k, v)


class TestCounterContract:
    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with contracts.contracts(), pytest.raises(ContractViolation):
            reg.inc("requests_admitted", -1.0)

    def test_positive_increments_fine(self):
        reg = MetricsRegistry()
        with contracts.contracts():
            reg.inc("requests_admitted")
            reg.inc("requests_admitted", 2.0)
        assert reg.counter("requests_admitted") == 3.0

    def test_disabled_contracts_do_not_guard(self):
        reg = MetricsRegistry()
        reg.inc("x", -1.0)  # silently allowed when opted out
        assert reg.counter("x") == -1.0
