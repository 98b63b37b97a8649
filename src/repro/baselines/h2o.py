"""H2O baseline (Zhang et al., 2023): heavy-hitter oracle KV-cache eviction.

H2O is a *decode-time memory* technique, not a prefill accelerator: after
each generation step it keeps the KV entries with the largest accumulated
attention scores ("heavy hitters") plus a recency window, evicting the rest.
The paper positions SampleAttention as orthogonal to this family -- one
reduces prefill compute, the other decode memory -- and the integration test
``tests/integration/test_orthogonality.py`` demonstrates the combination on
the model substrate.

The accumulated attention mass is this baseline's private state: the
caller keeps one float64 ``(H_kv, capacity)`` array per layer, decodes
through :func:`recording_attend` (which adds each step's probabilities
onto it) and calls :meth:`H2OPolicy.evict`, which shrinks the caches and
compacts the mass with the same keep sets.  No KV cache holds a mass
array, and the serving engine never evicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.packed import PackedDecodeItem, packed_decode_attention
from ..errors import ConfigError, ModelError

__all__ = ["H2OPolicy", "accumulate_attention", "recording_attend"]


def accumulate_attention(
    acc: np.ndarray, probs: np.ndarray, length: int
) -> None:
    """Add one decode step's attention mass ``probs`` ``(H_q, 1, length)``
    onto the statistic ``acc[:, :length]``, summing grouped query heads
    per KV head."""
    if probs.ndim != 3 or probs.shape[2] != length:
        raise ModelError(
            f"accumulate_attention: probs shape {probs.shape} vs len {length}"
        )
    h_q = probs.shape[0]
    h_kv = acc.shape[0]
    if h_q % h_kv != 0:
        raise ModelError("query heads not a multiple of KV heads")
    grouped = probs.sum(axis=1).reshape(h_kv, h_q // h_kv, length).sum(axis=1)
    acc[:, :length] += grouped


def recording_attend(mass: list[list[np.ndarray]]):
    """An ``attend_batch`` for
    :meth:`~repro.model.transformer.Transformer.decode_batch` that runs
    each layer as one :func:`~repro.attention.packed.packed_decode_attention`
    dispatch with probabilities and adds entry ``b``'s onto
    ``mass[b][layer]``.  Outputs are the default dispatch's, bit for bit.
    The mass is added as each layer runs, so a step that drops or raises
    leaves its earlier layers' mass behind: use it where a failed step
    ends the generation."""

    def attend_batch(layer: int, items: dict) -> dict:
        if not items:
            return {}
        res = packed_decode_attention(
            [
                PackedDecodeItem(q=q, k=k, v=v, scale=s)
                for q, k, v, s in items.values()
            ],
            return_probs=True,
        )
        for j, (b, (_, k, _, _)) in enumerate(items.items()):
            accumulate_attention(mass[b][layer], res.probs[j], k.shape[1])
        return {b: res.outputs[j] for j, b in enumerate(items)}

    return attend_batch


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

    def evict(self, caches, mass: list[np.ndarray]) -> None:
        """Shrink every cache over budget to its :meth:`select` keep set,
        ranked by its layer's accumulated mass ``mass[i]``, and compact
        that mass with the same keep set (entries past the new length are
        zeroed, ready for the next step's keys)."""
        for cache, acc in zip(caches, mass):
            n = len(cache)
            if n <= self.budget:
                continue
            keep = self.select(acc[:, :n])
            cache.evict(keep)
            kept = np.stack([acc[h, ix] for h, ix in enumerate(keep)])
            acc[:, : kept.shape[1]] = kept
            acc[:, kept.shape[1] : n] = 0.0
