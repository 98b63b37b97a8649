"""Dense causal attention -- the FlashAttention arm of every comparison.

The GPU kernel the paper compares against (FlashAttention2) streams key
tiles under a running row max and normaliser and never materialises the
``(S_q, S_k)`` score matrix.  Here that is one more thing the packed
executor (:mod:`repro.attention.packed`) runs -- an item whose rows are all
dense last rows -- so memory stays ``O(S * d)`` and the dense and sparse
arms of a TTFT ratio share one kernel family.
"""

from __future__ import annotations

import numpy as np

from .packed import PackedItem, packed_block_sparse_attention
from .utils import KernelWorkspace

__all__ = ["flash_attention"]


def flash_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    scale: float | None = None,
    workspace: KernelWorkspace | None = None,
) -> np.ndarray:
    """Dense causal attention of ``q (H, S_q, d)`` (right-aligned) over
    ``k``/``v`` ``(H_kv, S_k, d)``: one packed dispatch of
    :meth:`PackedItem.dense`, within 2e-5 of
    :func:`~repro.attention.dense.dense_attention`.  ``scale`` defaults to
    ``1/sqrt(d)``; ``workspace`` is a scratch arena to reuse across calls.
    Returns the ``(H, S_q, d)`` output in ``q``'s dtype.
    """
    item = PackedItem.dense(q, k, v, scale=scale)
    return packed_block_sparse_attention([item], workspace=workspace).results[0].output
