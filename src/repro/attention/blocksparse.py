"""Block-sparse FlashAttention kernel.

This is the execution engine behind SampleAttention's merged mask (paper
Section 4.3) and behind every structured baseline: given a
:class:`~repro.attention.masks.BlockMask` it runs FlashAttention's
online-softmax accumulation (a running row max and normaliser, one tile at
a time) but visits only the active tiles, skipping the I/O and FLOPs of
masked ones -- the exact mechanism by which the GPU kernel converts
sparsity into wall-clock speedup.

The kernel also reports how many tiles it actually visited per head, which
feeds the performance model (:mod:`repro.perf`): predicted latency is a
function of visited tiles, not of nominal sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MaskError
from .masks import BlockMask
from .utils import NEG_INF, total_causal_blocks, validate_qkv

__all__ = ["BlockSparseResult", "block_sparse_attention"]


@dataclass(frozen=True)
class BlockSparseResult:
    """Output of :func:`block_sparse_attention`.

    Attributes
    ----------
    output:
        ``(H, S_q, d)`` attention output.
    visited_blocks:
        ``(H,)`` number of score tiles actually computed per head.
    total_causal_blocks:
        Tiles a dense causal kernel would compute (per head); the ratio
        ``visited_blocks / total_causal_blocks`` is the achieved density.
    stats:
        Execution-path accounting (runs coalesced, head groups batched,
        GEMM calls) reported by the fast path
        (:func:`repro.attention.fastpath.fast_block_sparse_attention`);
        ``None`` for the reference kernel.
    """

    output: np.ndarray
    visited_blocks: np.ndarray
    total_causal_blocks: int
    stats: dict | None = None

    @property
    def density(self) -> float:
        """Mean achieved block density relative to dense causal attention."""
        if self.total_causal_blocks == 0:
            return 0.0
        return float(self.visited_blocks.mean() / self.total_causal_blocks)


def block_sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: BlockMask,
    *,
    scale: float | None = None,
) -> BlockSparseResult:
    """Online-softmax attention restricted to the active tiles of ``mask``.

    The mask is combined with causality elementwise inside straddling tiles,
    so callers only need block-level correctness.  Query rows left with no
    active tile produce a zero output row (and are reported by
    :meth:`BlockMask.validate_causal_rows` if the caller asks beforehand).

    Notes
    -----
    Equivalent to dense attention under the mask's elementwise expansion:
    ``dense_attention(q, k, v, mask=mask.to_dense())`` -- the kernel tests
    assert this to float32 tolerance.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, v)
    if mask.blocks.shape[0] != h:
        raise MaskError(
            f"mask has {mask.blocks.shape[0]} heads, tensors have {h}"
        )
    if mask.s_q != s_q or mask.s_k != s_k:
        raise MaskError(
            f"mask geometry ({mask.s_q}, {mask.s_k}) != tensors ({s_q}, {s_k})"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = np.float32(scale)
    b = mask.block_size
    offset = s_k - s_q

    # KV stay at H_kv heads; tile gathers map query heads to their KV head,
    # so GQA never materialises the repeated O(H * S_k * d) expansion.
    n_rep = h // h_kv
    kf = k.astype(np.float32, copy=False)
    vf = v.astype(np.float32, copy=False)
    qf = q.astype(np.float32, copy=False)

    out = np.zeros((h, s_q, d), dtype=np.float32)
    visited = np.zeros(h, dtype=np.int64)
    nq = mask.blocks.shape[1]

    for qi in range(nq):
        q0, q1 = qi * b, min((qi + 1) * b, s_q)
        bq = q1 - q0
        q_tile = qf[:, q0:q1]
        m = np.full((h, bq), NEG_INF, dtype=np.float32)
        l = np.zeros((h, bq), dtype=np.float32)
        acc = np.zeros((h, bq, d), dtype=np.float32)

        last_visible = (q1 - 1) + offset
        k_end_block = min(mask.blocks.shape[2], last_visible // b + 1)

        for kj in range(k_end_block):
            heads = np.nonzero(mask.blocks[:, qi, kj])[0]
            if heads.size == 0:
                continue
            k0, k1 = kj * b, min((kj + 1) * b, s_k)
            kv_heads = heads // n_rep
            s = np.einsum(
                "hqd,hkd->hqk", q_tile[heads], kf[kv_heads, k0:k1], optimize=True
            ) * scale

            if k1 - 1 > q0 + offset:
                rows = np.arange(q0, q1)[:, None] + offset
                cols = np.arange(k0, k1)[None, :]
                s = np.where(cols <= rows, s, NEG_INF)

            m_new = np.maximum(m[heads], np.max(s, axis=-1))
            alpha = np.exp(m[heads] - m_new)
            # Rows that have still seen no live entry (every score so far
            # masked) keep m_new == NEG_INF; exponentiating against 0 there
            # sends their probabilities to exp(NEG_INF) = 0 instead of the
            # exp(NEG_INF - NEG_INF) = 1 a naive subtraction would produce.
            m_base = np.where(m_new <= NEG_INF / 2, 0.0, m_new)
            p = np.exp(s - m_base[..., None])
            l[heads] = l[heads] * alpha + np.sum(p, axis=-1)
            acc[heads] = acc[heads] * alpha[..., None] + np.einsum(
                "hqk,hkd->hqd", p, vf[kv_heads, k0:k1], optimize=True
            )
            m[heads] = m_new
            visited[heads] += 1

        safe_l = np.where(l == 0.0, 1.0, l)
        out[:, q0:q1] = acc / safe_l[..., None]

    return BlockSparseResult(
        output=out.astype(q.dtype, copy=False),
        visited_blocks=visited,
        total_causal_blocks=total_causal_blocks(s_q, s_k, b),
    )

