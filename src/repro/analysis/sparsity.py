"""Sparsity degree (SD) -- paper Definition 1 -- and model-level sweeps.

``SD(alpha)`` is the largest fraction of the causal score footprint that can
be dropped while keeping CRA >= alpha.  The optimum is separable per row
(keep each row's smallest top-mass prefix reaching alpha), which is how the
oracle here computes it; the paper's Figures 2a-2c and Tables 5 report
exactly this statistic on its two backbones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .capture import layer_probs, layer_qkv

__all__ = [
    "oracle_row_keep_counts",
    "oracle_sd",
    "kv_retention_frequency",
    "SparsitySweep",
    "model_sparsity_sweep",
]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")


def _descending_cumsum(probs: np.ndarray) -> np.ndarray:
    """Each row's running mass over its entries sorted largest first, the
    ``(H, S_q, S_k)`` every alpha's keep counts are read from."""
    p = probs[None] if probs.ndim == 2 else probs
    if p.ndim != 3:
        raise ShapeError(f"probs must be rank 2 or 3, got {probs.ndim}")
    return np.cumsum(-np.sort(-p, axis=-1), axis=-1)


def _keep_counts(cum: np.ndarray, alpha: float) -> np.ndarray:
    # Rows can sum to slightly < alpha due to float error; clamp the target.
    totals = cum[..., -1]
    target = np.minimum(alpha, totals - 1e-9)
    # Smallest k with cum[k-1] >= target, vectorised over all rows.
    keep = np.sum(cum < target[..., None], axis=-1).astype(np.int64) + 1
    return keep


def _sd(cum: np.ndarray, alpha: float) -> np.ndarray:
    s_q, s_k = cum.shape[1], cum.shape[2]
    return 1.0 - _keep_counts(cum, alpha).sum(axis=1) / (s_q * s_k / 2.0)


def oracle_row_keep_counts(probs: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row minimal number of kept entries reaching row mass ``alpha``.

    ``probs``: ``(H, S_q, S_k)`` (or 2-D); rows assumed row-stochastic over
    their causal prefix.  Returns int64 ``(H, S_q)``.
    """
    _check_alpha(alpha)
    return _keep_counts(_descending_cumsum(probs), alpha)


def oracle_sd(probs: np.ndarray, alpha: float) -> np.ndarray:
    """Per-head oracle sparsity degree ``SD(alpha)`` (Definition 1).

    The denominator is the causal grid size ``S_q * S_k / 2``, matching the
    paper's normalisation.
    """
    _check_alpha(alpha)
    return _sd(_descending_cumsum(probs), alpha)


def kv_retention_frequency(probs: np.ndarray, alpha: float) -> np.ndarray:
    """How often each key position survives the per-row oracle (Figure 11).

    Returns ``(H, S_k)`` -- the fraction of query rows whose minimal
    alpha-mass set contains each key.
    """
    p = probs[None] if probs.ndim == 2 else probs
    h, s_q, s_k = p.shape
    order = np.argsort(-p, axis=-1, kind="stable")
    keep = oracle_row_keep_counts(p, alpha)
    freq = np.zeros((h, s_k), dtype=np.float64)
    for hh in range(h):
        for i in range(s_q):
            freq[hh, order[hh, i, : keep[hh, i]]] += 1.0
    return freq / max(s_q, 1)


@dataclass(frozen=True)
class SparsitySweep:
    """Result of :func:`model_sparsity_sweep`.

    Attributes
    ----------
    per_head:
        ``(n_layers, n_heads)`` oracle SD values.
    alpha:
        The CRA threshold used.
    seq_len:
        Prompt length analysed.
    """

    per_head: np.ndarray
    alpha: float
    seq_len: int

    @property
    def per_layer(self) -> np.ndarray:
        """Mean SD per layer (Figure 2a's series)."""
        return self.per_head.mean(axis=1)

    @property
    def mean(self) -> float:
        return float(self.per_head.mean())

    @property
    def min_head(self) -> float:
        """The densest head's SD (the 27.4% head of Figure 2c)."""
        return float(self.per_head.min())


def model_sparsity_sweep(
    model,
    tokens: np.ndarray,
    alpha: float = 0.95,
) -> SparsitySweep:
    """Oracle SD of every (layer, head) of ``model`` on one prompt.

    Runs a full-attention prefill with probability capture and applies the
    per-row oracle -- the measurement behind Figures 2a-2c and Table 5.
    """
    return model_sparsity_sweep_multi(model, tokens, (alpha,))[alpha]


def model_sparsity_sweep_multi(
    model,
    tokens: np.ndarray,
    alphas: tuple[float, ...],
) -> dict[float, SparsitySweep]:
    """Oracle SD sweep for several alphas sharing one prefill capture.

    A prefill with probability capture and the per-row sort are the
    expensive part; every alpha reads its keep counts off the one sorted
    running mass, so Table 5's three-alpha sweep costs one forward pass and
    one sort per layer instead of three.
    """
    if not alphas:
        raise ConfigError("alphas must be non-empty")
    for a in alphas:
        _check_alpha(a)
    per_layer: dict[float, list[np.ndarray]] = {a: [] for a in alphas}
    for entry in layer_qkv(model, tokens):
        # One layer's (H, S, S) probabilities at a time.
        cum = _descending_cumsum(layer_probs(*entry))
        for a in alphas:
            per_layer[a].append(_sd(cum, a))
    s = int(np.asarray(tokens).size)
    return {
        a: SparsitySweep(per_head=np.stack(per_layer[a]), alpha=a, seq_len=s)
        for a in alphas
    }
