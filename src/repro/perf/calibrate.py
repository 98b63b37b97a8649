"""Calibrating the performance model from substrate measurements.

The default :class:`~repro.perf.costmodel.SampleCostCurve` is anchored to
the paper's reported speedups.  This module provides the alternative the
library can produce end to end: *measure* the plan densities SampleAttention
actually achieves on the constructed backbone, fit the
:class:`~repro.perf.costmodel.SparsityScalingModel` power law to them, and
bill those measured densities through the roofline -- a fully self-contained
prediction pipeline (substrate plans -> kernel cost -> latency).
"""

from __future__ import annotations

import numpy as np

from ..analysis import layer_qkv
from ..config import SampleAttentionConfig
from ..core.sample_attention import plan_sample_attention
from ..errors import ConfigError
from .costmodel import ArchSpec, SparsityScalingModel
from .latency import LatencyModel

__all__ = [
    "measure_plan_densities",
    "fit_sparsity_from_measurements",
    "measured_speedup",
]


def measure_plan_densities(
    model,
    lengths: tuple[int, ...],
    alphas: tuple[float, ...] = (0.90, 0.95),
    *,
    seed: int = 0,
) -> dict[float, list[tuple[int, float]]]:
    """Measure mean per-layer plan element density on needle prompts.

    Returns ``{alpha: [(length, density), ...]}`` -- the shape
    :meth:`SparsityScalingModel.fit` consumes.
    """
    if not lengths or not alphas:
        raise ConfigError("lengths and alphas must be non-empty")
    from ..tasks.needle import make_needle_case  # local import: layering

    out: dict[float, list[tuple[int, float]]] = {a: [] for a in alphas}
    for length in lengths:
        case = make_needle_case(
            int(length), 0.5, rng=np.random.default_rng(seed)
        )
        qkv = layer_qkv(model, case.prompt)
        for alpha in alphas:
            densities = [
                plan_sample_attention(
                    q, k, SampleAttentionConfig(alpha=alpha), scale=scale
                ).element_density()
                for q, k, _, scale in qkv
            ]
            out[alpha].append((int(length), float(np.mean(densities))))
    return out


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
