"""Calibrating the performance model from substrate measurements.

The default :class:`~repro.perf.costmodel.SampleCostCurve` is anchored to
the paper's reported speedups.  This module provides the alternative fed by
measured plan densities (``{alpha: [(length, density), ...]}``, e.g. the
``element_density()`` of plans built on :func:`~repro.analysis.layer_qkv`
captures): fit the :class:`~repro.perf.costmodel.SparsityScalingModel`
power law to them, and bill a measured density through the roofline.
"""

from __future__ import annotations

from .costmodel import ArchSpec, SparsityScalingModel
from .latency import LatencyModel

__all__ = [
    "fit_sparsity_from_measurements",
    "measured_speedup",
]


def fit_sparsity_from_measurements(
    measurements: dict[float, list[tuple[int, float]]],
) -> SparsityScalingModel:
    """Power-law fit of measured densities (thin wrapper for discoverability)."""
    return SparsityScalingModel.fit(measurements)


def measured_speedup(
    arch: ArchSpec,
    density: float,
    s: int,
    *,
    r_row: float = 0.05,
) -> float:
    """Attention-stack speedup over FlashAttention implied by a *measured*
    plan density, billed through the roofline (no paper anchors)."""
    model = LatencyModel(arch)
    flash = model.attention_latency(s, "flash").seconds
    sample = model.attention_latency(
        s, "sample", r_row=r_row, kept_fraction=density
    ).seconds
    return flash / sample
