"""Offline hyperparameter profiling (paper Table 1, Section 4.2).

:func:`profile_hyperparameters` is the paper's "lightweight offline
profiling".  The paper fixes ``alpha``, ``r_row`` and ``r_w%`` per model on
a small calibration set (22 requests of 25K-96K tokens) and reuses the
result across tasks.  We sweep each hyperparameter coordinate-wise around
the defaults, score each setting against full attention, and pick the
*cheapest* setting (lowest predicted element density) that stays
near-lossless (>= 99% of the full-attention score, the MLPerf criterion the
paper adopts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends import FullAttentionBackend, SampleAttentionBackend
from ..config import SampleAttentionConfig
from ..errors import ProfilingError

__all__ = ["ProfilingReport", "profile_hyperparameters"]


@dataclass
class ProfilingReport:
    """Outcome of offline profiling.

    Attributes
    ----------
    config:
        The selected hyperparameters.
    trials:
        One record per evaluated setting: ``(name, value, score_ratio,
        mean_density)`` where ``score_ratio`` is relative to full attention.
    full_score:
        Total calibration score of full attention (the gold standard).
    """

    config: SampleAttentionConfig
    trials: list[tuple[str, float, float, float]] = field(default_factory=list)
    full_score: float = 0.0

    def summary_rows(self) -> list[list]:
        return [
            [name, value, round(ratio, 4), round(density, 4)]
            for name, value, ratio, density in self.trials
        ]


def _evaluate(model, backend, cases) -> tuple[float, float]:
    from ..tasks.base import evaluate_cases  # local import: layer order

    results = evaluate_cases(model, backend, cases)
    total = float(sum(r.score for r in results))
    density = float(np.mean([r.mean_density for r in results]))
    return total, density


def profile_hyperparameters(
    model,
    calibration_cases,
    *,
    alphas: tuple[float, ...] = (0.80, 0.90, 0.95, 0.98),
    r_rows: tuple[float, ...] = (0.02, 0.05, 0.10),
    r_windows: tuple[float, ...] = (0.04, 0.08),
    target_ratio: float = 0.99,
    base_config: SampleAttentionConfig | None = None,
) -> ProfilingReport:
    """Coordinate-wise offline profiling of SampleAttention hyperparameters.

    For each hyperparameter in turn (``alpha``, then ``r_row``, then
    ``r_window``), evaluate the candidate values with the other knobs held
    at their current best, and keep the cheapest value whose calibration
    score is at least ``target_ratio`` of full attention's.

    Raises :class:`~repro.errors.ProfilingError` when no candidate of some
    coordinate meets the target (the calibration set is then too hard for
    the searched grid -- widen it).
    """
    if not calibration_cases:
        raise ProfilingError("calibration_cases must be non-empty")
    config = base_config or SampleAttentionConfig()

    full_score, _ = _evaluate(model, FullAttentionBackend(), calibration_cases)
    if full_score <= 0:
        raise ProfilingError(
            "full attention scores 0 on the calibration set; the gold "
            "standard must be meaningful"
        )

    report = ProfilingReport(config=config, full_score=full_score)
    sweeps = (
        ("alpha", alphas),
        ("r_row", r_rows),
        ("r_window", r_windows),
    )
    for name, values in sweeps:
        best_value = None
        best_density = np.inf
        for value in sorted(values):
            candidate = config.replace(**{name: value})
            score, density = _evaluate(
                model, SampleAttentionBackend(candidate), calibration_cases
            )
            ratio = score / full_score
            report.trials.append((name, float(value), ratio, density))
            if ratio >= target_ratio and density < best_density:
                best_value = value
                best_density = density
        if best_value is None:
            raise ProfilingError(
                f"no candidate for {name} in {sorted(values)} reaches "
                f"{target_ratio:.0%} of full attention on the calibration set"
            )
        config = config.replace(**{name: best_value})

    report.config = config
    return report
