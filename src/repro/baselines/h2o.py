"""H2O baseline (Zhang et al., 2023): heavy-hitter oracle KV-cache eviction.

H2O is a *decode-time memory* technique, not a prefill accelerator: after
each generation step it keeps the KV entries with the largest accumulated
attention scores ("heavy hitters") plus a recency window, evicting the rest.
The paper positions SampleAttention as orthogonal to this family -- one
reduces prefill compute, the other decode memory -- and the integration test
``tests/integration/test_orthogonality.py`` demonstrates the combination on
the model substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["H2OPolicy"]


@dataclass(frozen=True)
class H2OPolicy:
    """Heavy-hitter + recent-token KV retention policy.

    Attributes
    ----------
    budget:
        Total KV entries retained per head after eviction.
    recent_fraction:
        Fraction of the budget reserved for the most recent tokens; the
        remainder goes to heavy hitters (H2O's balanced default is 0.5).
    """

    budget: int
    recent_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 <= self.recent_fraction <= 1.0:
            raise ConfigError(
                f"recent_fraction must be in [0, 1], got {self.recent_fraction}"
            )

    def select(self, accumulated_scores: np.ndarray) -> list[np.ndarray]:
        """Choose which cache positions to keep for each head.

        Parameters
        ----------
        accumulated_scores:
            ``(H, S)`` attention probability mass each key has received so
            far (the "oracle" statistic H2O tracks during decoding).

        Returns
        -------
        Length-``H`` list of sorted keep-index arrays.  When the cache is
        within budget all positions are kept.
        """
        if accumulated_scores.ndim != 2:
            raise ConfigError(
                f"accumulated_scores must be (H, S), got rank {accumulated_scores.ndim}"
            )
        h, s = accumulated_scores.shape
        if s <= self.budget:
            return [np.arange(s, dtype=np.int64) for _ in range(h)]

        n_recent = int(round(self.budget * self.recent_fraction))
        n_recent = min(max(n_recent, 0), self.budget)
        n_heavy = self.budget - n_recent
        recent = np.arange(s - n_recent, s, dtype=np.int64)

        keeps: list[np.ndarray] = []
        for i in range(h):
            scores = accumulated_scores[i].copy()
            scores[recent] = -np.inf  # recents already kept
            heavy = np.argsort(-scores, kind="stable")[:n_heavy].astype(np.int64)
            keeps.append(np.sort(np.concatenate([heavy, recent])))
        return keeps

    def evict(self, caches) -> None:
        """Shrink every cache over budget to its :meth:`select` keep set,
        ranked by the attention mass its decode steps recorded."""
        for cache in caches:
            if len(cache) > self.budget:
                cache.evict(self.select(cache.attention_mass()))
