"""Per-layer attention inputs as the model's forward pass computes them.

Every analysis of a model's attention (oracle sparsity, head patterns, CRA,
plan densities) starts from each layer's q/k/v.  They are read from the one
prefill the model has, :meth:`~repro.model.Transformer.prefill` under full
attention, through a recording backend -- so layer ``i``'s q/k are those of
layer ``i``'s real input (embedding plus every earlier layer's attention
and MLP output, normalised where the model normalises), never a projection
rebuilt beside the model.
"""

from __future__ import annotations

import numpy as np

from ..attention.dense import dense_attention
from ..backends import FullAttentionBackend

__all__ = ["layer_qkv", "layer_probs", "dense_probs"]


class _RecordingBackend(FullAttentionBackend):
    """Full attention that keeps every layer's ``(q, k, v, scale)``."""

    def __init__(self) -> None:
        super().__init__()
        self.qkv: list[tuple] = []

    def prefill(self, q, k, v, *, scale=None, layer=0):
        self.qkv.append((q, k, v, scale))
        return super().prefill(q, k, v, scale=scale, layer=layer)


def layer_qkv(model, tokens: np.ndarray) -> list[tuple]:
    """Each layer's ``(q, k, v, scale)`` as one prefill computes them.

    One full-attention :meth:`~repro.model.Transformer.prefill` of
    ``tokens``; per layer the rotated q ``(H, S, e)``, the rotated keys and
    the values ``(H_kv, S, e)`` and the softmax scale it attended with."""
    backend = _RecordingBackend()
    model.prefill(tokens, backend)
    return backend.qkv


def layer_probs(q, k, v, scale) -> np.ndarray:
    """Dense causal probabilities ``(H, S, S)`` of one :func:`layer_qkv` entry.

    Computed by the gold kernel, in quadratic memory."""
    return dense_attention(q, k, v, causal=True, scale=scale, return_probs=True).probs


def dense_probs(model, tokens: np.ndarray) -> list[np.ndarray]:
    """Each layer's :func:`layer_probs` on ``tokens``, indexed by layer."""
    return [layer_probs(*entry) for entry in layer_qkv(model, tokens)]
