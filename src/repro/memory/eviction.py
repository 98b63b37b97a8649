"""Live eviction for paged KV caches under pressure.

The serving engine invokes a policy when the arena runs dry and registry
shrinking was not enough (the second half of the ``evict`` rung).  A policy inspects one layer
cache and proposes the per-head keep sets that
:meth:`~repro.memory.PagedLayerKVCache.evict` consumes -- the same
rectangular contract as the contiguous cache, so both backends accept the
result.

One policy ships, and it is the one the engine runs:
:class:`HeavyHitterPolicy` -- H2O-style (Zhang et al., 2023): rank keys by
accumulated decode attention mass, keep the heaviest plus a recency window.

Policies only ever shrink decode-phase caches; prefill numerics stay
oracle-exact (the paper's near-lossless story applies to prefill, and the
engine enforces the phase restriction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.h2o import H2OPolicy
from ..errors import ConfigError

__all__ = ["EvictionPolicy", "HeavyHitterPolicy"]


class EvictionPolicy:
    """Interface: propose per-head keep indices for one layer cache."""

    name = "abstract"

    def select(self, cache, target_tokens: int) -> list[np.ndarray] | None:
        """Keep sets shrinking ``cache`` to ``<= target_tokens`` entries
        per head, or ``None`` when the cache cannot usefully shrink
        (already at or below target)."""
        raise NotImplementedError


@dataclass(frozen=True)
class HeavyHitterPolicy(EvictionPolicy):
    """Accumulated-attention heavy hitters + recency window (H2O)."""

    recent_fraction: float = 0.5
    name = "heavy_hitter"

    def __post_init__(self) -> None:
        if not 0.0 <= self.recent_fraction <= 1.0:
            raise ConfigError(
                f"recent_fraction must be in [0, 1], "
                f"got {self.recent_fraction}"
            )

    def select(self, cache, target_tokens: int) -> list[np.ndarray] | None:
        if target_tokens < 1:
            raise ConfigError(
                f"target_tokens must be >= 1, got {target_tokens}"
            )
        s = len(cache)
        if s <= target_tokens:
            return None
        scores = cache.attention_mass()
        return H2OPolicy(
            budget=target_tokens, recent_fraction=self.recent_fraction
        ).select(scores)
