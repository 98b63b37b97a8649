"""Live eviction for paged KV caches under pressure.

The serving engine invokes :class:`HeavyHitterPolicy` when the arena runs
dry and registry shrinking was not enough (the second half of the
``evict`` rung).  It inspects one layer cache and proposes the per-head
keep sets that :meth:`~repro.memory.PagedLayerKVCache.evict` consumes --
the same rectangular contract as the contiguous cache, so both backends
accept the result.  The ranking is H2O-style (Zhang et al., 2023): keys by
accumulated decode attention mass, the heaviest kept plus a recency window.

Eviction only ever shrink decode-phase caches; prefill numerics stay
oracle-exact (the paper's near-lossless story applies to prefill, and the
engine enforces the phase restriction).
"""

from __future__ import annotations

import numpy as np

from ..baselines.h2o import H2OPolicy
from ..errors import ConfigError

__all__ = ["HeavyHitterPolicy"]

#: Share of a shrunk cache's keep budget spent on the most recent keys; the
#: rest goes to the heaviest accumulated-mass keys.
RECENT_FRACTION = 0.5


class HeavyHitterPolicy:
    """Accumulated-attention heavy hitters + recency window (H2O).

    :data:`RECENT_FRACTION` of the keep budget goes to the newest keys."""

    def select(self, cache, target_tokens: int) -> list[np.ndarray] | None:
        """Keep sets shrinking ``cache`` to ``<= target_tokens`` entries
        per head, or ``None`` when the cache cannot usefully shrink
        (already at or below target)."""
        if target_tokens < 1:
            raise ConfigError(
                f"target_tokens must be >= 1, got {target_tokens}"
            )
        s = len(cache)
        if s <= target_tokens:
            return None
        scores = cache.attention_mass()
        return H2OPolicy(
            budget=target_tokens, recent_fraction=RECENT_FRACTION
        ).select(scores)
