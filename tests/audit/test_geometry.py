"""Tests for the geometry fuzzer: sampling, area checks, and the
every-area property hypothesis draws (and shrinks) cases for."""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.audit import TOLERANCE, contracts
from repro.audit.geometry import (
    AUDIT_AREAS,
    GeometryCase,
    run_case,
    sample_case,
    sample_cases,
)
from repro.errors import ConfigError

BASE = GeometryCase(
    seed=7,
    h=2,
    h_kv=1,
    s_q=20,
    s_k=33,
    d=4,
    block_size=8,
    window=5,
    stripe_mode="random",
    sink_tokens=1,
    dense_last_rows=0,
    alpha=0.95,
    r_row=0.05,
    min_keep=1,
)


class TestSampling:
    def test_deterministic(self):
        a = sample_cases(0, 16)
        b = sample_cases(0, 16)
        assert a == b

    def test_seeds_differ(self):
        assert sample_cases(0, 8) != sample_cases(1, 8)

    def test_cases_are_valid_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = sample_case(rng)
            assert 1 <= c.s_q <= c.s_k
            assert c.h % c.h_kv == 0
            assert 0 <= c.window <= c.s_k
            assert c.block_size in (8, 16, 32)

    def test_covers_adversarial_regions(self):
        cases = sample_cases(0, 300)
        assert any(c.s_q < c.s_k for c in cases)  # chunked offsets
        assert any(c.s_k % c.block_size for c in cases)  # ragged tails
        assert any(c.window == 0 for c in cases)
        assert any(c.window == 1 for c in cases)
        assert any(c.window == c.s_k for c in cases)
        assert any(c.stripe_mode == "empty" for c in cases)
        assert any(c.stripe_mode == "full" for c in cases)
        assert any(c.h > c.h_kv for c in cases)  # GQA
        assert any(c.alpha == 1.0 for c in cases)
        assert any(c.min_keep == 0 for c in cases)


class TestAreaChecks:
    @pytest.mark.parametrize("area", AUDIT_AREAS)
    def test_base_case_passes(self, area):
        result = run_case(BASE, area)
        assert result.passed, result.detail
        assert result.divergence <= 2e-5

    @pytest.mark.parametrize("area", AUDIT_AREAS)
    def test_sampled_cases_pass(self, area):
        for case in sample_cases(5, 12):
            result = run_case(case, area)
            assert result.passed, (case, result.detail)

    def test_window_zero_counts_as_rejection_pass(self):
        case = dataclasses.replace(BASE, window=0)
        assert run_case(case, "kernels").passed
        result = run_case(case, "packed")
        assert result.passed and result.detail == "window=0 rejected"

    def test_single_token_geometry(self):
        case = dataclasses.replace(
            BASE, s_q=1, s_k=1, window=1, min_keep=1, sink_tokens=0
        )
        for area in AUDIT_AREAS:
            assert run_case(case, area).passed

    def test_unknown_area_rejected(self):
        with pytest.raises(ConfigError):
            run_case(BASE, "nonsense")

    def test_packed_area_registered(self):
        # The packed dispatch ships with its own fuzz area: every campaign
        # cross-checks the fused batch against the masked-dense oracle of
        # each plan's *element* mask, and alone-vs-in-batch bitwise.
        assert "packed" in AUDIT_AREAS
        result = run_case(BASE, "packed")
        assert result.passed and result.divergence <= TOLERANCE
        assert result.invariance_checks == 3

    def test_banded_plans_are_executed_and_counted(self):
        # The hand-built plans of ``packed`` carry extra diagonal bands for
        # about half the geometries, and the provider zoo attaches slashes
        # of its own: both areas report how many checks ran a banded plan
        # (CI asserts the campaign totals are non-zero).
        cases = sample_cases(0, 48)
        for area in ("packed", "providers"):
            results = [run_case(case, area) for case in cases]
            assert all(r.passed for r in results)
            banded = sum(r.banded_checks for r in results)
            assert 0 < banded < sum(r.checks for r in results)
        assert run_case(BASE, "kernels").banded_checks == 0

    def test_packed_decode_area_registered(self):
        # Fused decode batches are held to the dense oracle within
        # tolerance and to *bitwise* batch invariance (alone vs in the
        # batch): serving token parity across batching modes rests on it.
        assert "packed_decode" in AUDIT_AREAS
        result = run_case(BASE, "packed_decode")
        assert result.passed and result.divergence <= TOLERANCE
        assert result.invariance_checks > 0
        # One item of every case is of serving length (>= 1024 keys): the
        # fuzzed s_k alone stays below the decode GEMMs' BLAS regime change.
        assert 0 < result.long_decode_checks < result.checks


@st.composite
def geometry_cases(draw):
    """``GeometryCase``s drawn field by field over the seeded sampler's
    domain (``sample_case``); hypothesis shrinks each field towards the
    first value it can take."""
    s_k = draw(st.integers(1, 127))
    s_q = draw(st.integers(1, s_k))
    h_kv = draw(st.sampled_from([1, 2, 3]))
    return GeometryCase(
        seed=draw(st.integers(0, 2**31 - 2)),
        h=h_kv * draw(st.sampled_from([1, 2, 3, 5])),
        h_kv=h_kv,
        s_q=s_q,
        s_k=s_k,
        d=draw(st.sampled_from([1, 4, 16])),
        block_size=draw(st.sampled_from([8, 16, 32])),
        window=draw(st.one_of(st.integers(1, s_k), st.sampled_from([0, s_k]))),
        stripe_mode=draw(st.sampled_from(["empty", "full", "random"])),
        sink_tokens=draw(st.sampled_from([0, 1, 4])),
        dense_last_rows=draw(st.sampled_from([0, 1, s_q])),
        alpha=draw(st.sampled_from([0.95, 0.05, 0.5, 0.999, 1.0])),
        r_row=draw(st.sampled_from([0.05, 0.01, 0.3, 1.0])),
        min_keep=draw(st.sampled_from([0, 1, 2, s_k])),
    )


def _every_area_passes(case):
    with contracts.contracts(True):  # as in the campaign
        for area in AUDIT_AREAS:
            result = run_case(case, area)
            assert result.passed, (area, result.detail)


def every_area_property(**overrides):
    """The property as a runnable hypothesis test under ``overrides``."""
    return settings(deadline=None, **overrides)(
        given(case=geometry_cases())(_every_area_passes)
    )


class TestEveryAreaProperty:
    """Every area passes on every drawn geometry; a failure is shrunk by
    hypothesis and printed with its ``@reproduce_failure`` blob."""

    def test_every_area_passes(self):
        every_area_property(max_examples=40)()


def _drop_one_stripe_column(real):
    def mutant(kv_indices, h, s_k, sink_tokens):
        out = real(kv_indices, h, s_k, sink_tokens)
        out[0] = out[0][:-1]
        return out

    return mutant


def _skip_the_sinks(real):
    return lambda kv_indices, h, s_k, sink_tokens: real(kv_indices, h, s_k, 0)


def _shift_the_window_by_one(real):
    def mutant(window):
        dead = np.roll(real(window), -1, axis=1)
        dead[:, -1] = True
        return dead

    return mutant


def _drop_the_extra_bands(real):
    return lambda window, bands: real(window, None)


def _count_band_stripe_columns_twice(real):
    """Stripe ownership forgets the extra bands: a stripe column crossing
    a band is scored by the stripe part *and* the band part."""
    return lambda pos, cols, window, extras: real(pos, cols, window, ())


class TestPackedGateCatchesSeededMutations:
    """The oracle of the ``packed`` / ``providers`` areas is built from the
    plan's element mask, independently of the kernel's own geometry code,
    so a kernel that executes a slightly different mask must fail them --
    on the seeded campaign's cases and under the every-area property."""

    CASES = sample_cases(0, 48)

    def _failures(self, area):
        return sum(not run_case(case, area).passed for case in self.CASES)

    def test_unmutated_kernel_passes(self):
        assert self._failures("packed") == 0
        assert self._failures("providers") == 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "attr,mutation",
        [
            ("normalise_indices", _drop_one_stripe_column),
            ("_window_dead", _shift_the_window_by_one),
            ("normalise_indices", _skip_the_sinks),
            ("normalise_bands", _drop_the_extra_bands),
            ("_stripe_dead", _count_band_stripe_columns_twice),
        ],
    )
    def test_mutation_is_caught(self, monkeypatch, attr, mutation):
        import repro.attention.packed as packed

        monkeypatch.setattr(packed, attr, mutation(getattr(packed, attr)))
        assert self._failures("packed") > 0
        assert self._failures("providers") > 0
        # Shrinking is the property's job in CI; here a failure suffices.
        caught = every_area_property(
            derandomize=True, database=None, phases=[Phase.generate]
        )
        with pytest.raises(AssertionError):
            caught()
