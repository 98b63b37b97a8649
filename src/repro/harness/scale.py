"""Workload sizes for one harness run, and the one parser of a scale name.

Both the experiments and the drills take ``scale="quick"`` / ``"full"`` (or
an :class:`ExperimentScale`); :func:`resolve_scale` is the only place that
turns that argument into sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .methods import METHOD_NAMES

__all__ = ["ExperimentScale", "QUICK", "FULL", "resolve_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizes for one harness run."""

    name: str
    longbench_lengths: tuple[int, ...]
    babilong_lengths: tuple[int, ...]
    needle_lengths: tuple[int, ...]
    n_depths: int
    cases_per_category: int
    cases_per_task: int
    sparsity_lengths: tuple[int, ...]
    models: tuple[str, ...]
    methods: tuple[str, ...] = METHOD_NAMES


QUICK = ExperimentScale(
    name="quick",
    longbench_lengths=(640, 1024, 1536),
    babilong_lengths=(512, 1024, 1792),
    needle_lengths=(640, 1280, 2048),
    n_depths=6,
    cases_per_category=3,
    cases_per_task=3,
    sparsity_lengths=(512, 1024, 2048),
    models=("glm-mini", "intern-mini"),
)

FULL = ExperimentScale(
    name="full",
    longbench_lengths=(640, 1024, 1536, 2176),
    babilong_lengths=(512, 1024, 2048, 3072),
    needle_lengths=(640, 1280, 2560, 4096),
    n_depths=16,
    cases_per_category=6,
    cases_per_task=6,
    sparsity_lengths=(512, 1024, 2048, 4096, 6144),
    models=("glm-mini", "intern-mini"),
)


def resolve_scale(scale) -> ExperimentScale:
    """``"quick"`` -> :data:`QUICK`, ``"full"`` -> :data:`FULL`; an
    :class:`ExperimentScale` passes through unchanged."""
    if isinstance(scale, ExperimentScale):
        return scale
    if scale == "quick":
        return QUICK
    if scale == "full":
        return FULL
    raise ConfigError(f"unknown scale {scale!r}")
