"""Profiling utilities: offline hyperparameter search and stage timing.

Two distinct tools share this module:

* :func:`profile_hyperparameters` -- the paper's "lightweight offline
  profiling" (Table 1, Section 4.2).  The paper fixes ``alpha``, ``r_row``
  and ``r_w%`` per model on a small calibration set (22 requests of
  25K-96K tokens) and reuses the result across tasks.  We sweep each
  hyperparameter coordinate-wise around the defaults, score each setting
  against full attention, and pick the *cheapest* setting (lowest predicted
  element density) that stays near-lossless (>= 99% of the full-attention
  score, the MLPerf criterion the paper adopts).

* :class:`StageProfiler` -- a wall-clock stage timer threaded through the
  SampleAttention pipeline (``sample`` -> ``filter`` -> ``attend``,
  mirroring Figure 5b's sampling-vs-sparse-compute breakdown) plus counters
  for kernel execution-path accounting (packed dispatches, GEMM calls,
  tiles visited, elements computed).  The serving engine attaches one per run so ``sampleattn
  serve`` can report where chunk time goes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..backends import FullAttentionBackend, SampleAttentionBackend
from ..config import SampleAttentionConfig
from ..errors import ProfilingError

__all__ = ["ProfilingReport", "StageProfiler", "profile_hyperparameters"]


@dataclass
class StageProfiler:
    """Accumulates wall-clock time per pipeline stage plus event counters.

    The profiler is deliberately tiny: ``stage(name)`` is a context manager
    that adds elapsed ``perf_counter`` time to ``timings[name]`` and bumps
    ``calls[name]``; ``count(name, n)`` accumulates dimensionless kernel
    statistics (tiles visited, runs coalesced, ...).  Instances merge, so
    per-request profilers can roll up into an engine-level total.

    Stage time is *exclusive*: a stage opened inside another (the engine's
    ``decode`` loop around its per-layer ``attend`` dispatches) charges the
    parent its span minus its children's, so every second is billed to
    exactly one stage and ``total_time()`` never exceeds the wall clock.

    Timings are wall-clock and therefore non-deterministic; callers that
    need reproducible telemetry (the chaos drill compares same-seed runs)
    must keep timings out of deterministic summaries and use ``counts``
    there instead.
    """

    timings: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: one entry per open stage: seconds spent in stages nested inside it
    _nested: list[float] = field(default_factory=list, repr=False, compare=False)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block of work under ``name`` (re-entrant across calls)."""
        self._nested.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            span = time.perf_counter() - t0
            inner = self._nested.pop()
            if self._nested:
                self._nested[-1] += span
            self.timings[name] = self.timings.get(name, 0.0) + span - inner
            self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, value: float) -> None:
        """Accumulate a kernel statistic (deterministic, unlike timings)."""
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def merge(self, other: "StageProfiler") -> None:
        """Fold ``other``'s accumulators into this profiler."""
        for name, dt in other.timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + dt
        for name, n in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, v in other.counts.items():
            self.counts[name] = self.counts.get(name, 0.0) + v

    def total_time(self) -> float:
        """Sum of all stage timings in seconds."""
        return float(sum(self.timings.values()))

    def report(self) -> dict:
        """JSON-friendly snapshot: per-stage seconds, shares, and counters."""
        total = self.total_time()
        stages = {
            name: {
                "seconds": self.timings[name],
                "calls": self.calls.get(name, 0),
                "share": (self.timings[name] / total) if total > 0 else 0.0,
            }
            for name in sorted(self.timings)
        }
        return {
            "total_seconds": total,
            "stages": stages,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }


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
