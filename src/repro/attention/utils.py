"""Shared numerics for all attention implementations.

Array conventions used throughout :mod:`repro.attention`:

* queries ``q``: ``(H, S_q, d)`` -- head-major, no batch dimension (the
  paper benchmarks batch size 1 to reach long sequence lengths).
* keys/values ``k``, ``v``: ``(H_kv, S_k, d)`` where ``H_kv`` divides ``H``
  (grouped-query attention); ``H_kv == H`` is ordinary multi-head attention.
* When ``S_q < S_k`` the queries are *right-aligned*: query row ``i``
  corresponds to absolute position ``S_k - S_q + i``, which is the layout
  of both chunked prefill and single-token decode.

Everything is computed in float32 by default with float32 accumulation,
mirroring the numerics of an fp16-input/fp32-accumulate GPU kernel closely
enough for the library's tolerance-based kernel tests.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError

__all__ = [
    "NEG_INF",
    "softmax",
    "causal_mask",
    "validate_qkv",
    "total_causal_blocks",
    "total_causal_elements",
    "KernelWorkspace",
    "expand_kv",
    "grouped_qk",
    "grouped_pv",
    "decode_row_attention",
    "attention_scores",
    "masked_row_softmax",
]

NEG_INF = np.float32(-1e30)
"""Additive mask value; large enough to zero a float32 softmax entry."""

#: Clamp applied to ``score - row_max`` before ``exp`` (packed prefill,
#: decode and stage-1 sampling share it): entries this far below the row
#: max contribute < 1e-26 relative mass (indistinguishable from 0 in
#: float32), but raw ``exp`` of them -- of a masked entry's ``-1e30``, or
#: of a real score in the float32 denormal band 87-104 below the max --
#: takes numpy's underflow slow path, ~6-10x the cost of the fast path.
#: The value must stay well above ``log(FLT_MIN)`` (~-87.3): weights of
#: ``exp(-60)`` (~9e-27) keep every probability-times-value product in the
#: PV GEMM normal, where a tighter clamp would flood the GEMM with
#: denormal products and trigger a per-FMA microcode assist that costs
#: more than the masking it replaced.
_EXP_CLAMP = np.float32(-60.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Rows that are entirely ``-inf``-like (all entries below ``NEG_INF/2``)
    produce all-zero probability rows instead of NaN, which is the behaviour
    a sparse kernel exhibits for a fully masked row.
    """
    x = np.asarray(x)
    m = np.max(x, axis=axis, keepdims=True)
    dead = m <= NEG_INF / 2
    if dead.any():
        e = np.exp(x - np.where(dead, 0.0, m))
        e = np.where(np.broadcast_to(dead, e.shape), 0.0, e)
        z = np.sum(e, axis=axis, keepdims=True)
        z = np.where(z == 0.0, 1.0, z)
    else:
        # No fully masked row: the three ``where`` passes are identities
        # (every live row holds ``exp(0) = 1``, so ``z >= 1``).
        e = np.exp(x - m)
        z = np.sum(e, axis=axis, keepdims=True)
    return np.divide(e, z, out=e)


def causal_mask(s_q: int, s_k: int) -> np.ndarray:
    """Boolean ``(s_q, s_k)`` mask, ``True`` where attention is allowed.

    Queries are right-aligned: row ``i`` sits at absolute position
    ``s_k - s_q + i`` and may attend to keys ``j <= s_k - s_q + i``.
    Requires ``s_q <= s_k``.
    """
    if s_q > s_k:
        raise ShapeError(f"causal_mask requires s_q <= s_k, got {s_q} > {s_k}")
    offset = s_k - s_q
    rows = np.arange(s_q)[:, None] + offset
    cols = np.arange(s_k)[None, :]
    return cols <= rows


def validate_qkv(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[int, int, int, int, int]:
    """Validate shapes and return ``(H, H_kv, S_q, S_k, d)``.

    Raises :class:`~repro.errors.ShapeError` on any inconsistency,
    including a head count that is not a multiple of the KV head count.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(
            "q, k, v must be rank-3 (H, S, d); got ranks "
            f"{q.ndim}, {k.ndim}, {v.ndim}"
        )
    h, s_q, d = q.shape
    h_kv, s_k, d_k = k.shape
    if v.shape != (h_kv, s_k, d_k):
        raise ShapeError(f"v shape {v.shape} != k shape {k.shape}")
    if d != d_k:
        raise ShapeError(f"head dim mismatch: q has d={d}, k has d={d_k}")
    if h_kv == 0 or h % h_kv != 0:
        raise ShapeError(f"H={h} must be a positive multiple of H_kv={h_kv}")
    if s_q > s_k:
        raise ShapeError(f"S_q={s_q} must be <= S_k={s_k} (right-aligned queries)")
    return h, h_kv, s_q, s_k, d


def total_causal_blocks(s_q: int, s_k: int, block_size: int) -> int:
    """Tiles a dense causal kernel visits for right-aligned queries."""
    offset = s_k - s_q
    total = 0
    nq = -(-s_q // block_size)
    for qi in range(nq):
        q1 = min((qi + 1) * block_size, s_q)
        last_visible = (q1 - 1) + offset
        total += min(-(-s_k // block_size), last_visible // block_size + 1)
    return total


def total_causal_elements(s_q: int, s_k: int) -> int:
    """Score entries a dense causal kernel computes per head for
    right-aligned queries: row ``i`` sees ``s_k - s_q + i + 1`` keys."""
    return s_q * (s_k - s_q) + s_q * (s_q + 1) // 2


class KernelWorkspace:
    """Grow-only scratch arena for the attention kernels.

    Buffers are keyed by role (``"scores"``, ``"acc"``, ...) and resized
    only upwards, so a workspace that has seen a call's peak shape serves
    every later call of the same or smaller geometry without allocating --
    the O(1)-allocations-per-call property the packed and fast block
    kernels advertise.  One workspace must not be shared between
    concurrent calls.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: Number of backing allocations performed so far; a warm workspace
        #: stops growing (the reuse tests pin this).
        self.allocations = 0

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A writable array of ``shape`` backed by the arena (uninitialised)."""
        n = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n or buf.dtype != np.dtype(dtype):
            buf = np.empty(max(n, 1), dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return sum(b.nbytes for b in self._buffers.values())


def expand_kv(x: np.ndarray, n_rep: int) -> np.ndarray:
    """Repeat KV heads for grouped-query attention.

    ``(H_kv, S, d) -> (H_kv * n_rep, S, d)`` where consecutive groups of
    ``n_rep`` query heads share one KV head, matching the layout used by
    LLaMA-family ``repeat_kv``.
    """
    if n_rep == 1:
        return x
    h_kv, s, d = x.shape
    return np.broadcast_to(x[:, None], (h_kv, n_rep, s, d)).reshape(
        h_kv * n_rep, s, d
    )


def grouped_qk(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Score GEMM ``q @ k^T`` without materialising repeated KV heads.

    ``(H, S_q, d) x (H_kv, S_k, d) -> (H, S_q, S_k)``.  Under GQA the query
    heads are viewed as ``(H_kv, n_rep, S_q, d)`` and ``k`` broadcasts as
    ``(H_kv, 1, S_k, d)`` through one batched :func:`numpy.matmul`, so the
    ``O(H * S_k * d)`` :func:`expand_kv` copy (and einsum path re-planning)
    never happens.  Splitting the leading head axis is stride-preserving,
    so views (e.g. query tiles) reshape without copying.
    """
    h, s_q, d = q.shape
    h_kv, s_k = k.shape[0], k.shape[1]
    if h == h_kv:
        return np.matmul(q, k.transpose(0, 2, 1))
    q4 = q.reshape(h_kv, h // h_kv, s_q, d)
    s = np.matmul(q4, k[:, None].transpose(0, 1, 3, 2))
    return s.reshape(h, s_q, s_k)


def grouped_pv(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Output GEMM ``p @ v`` without materialising repeated KV heads.

    ``(H, S_q, S_k) x (H_kv, S_k, d) -> (H, S_q, d)``; the GQA counterpart
    of :func:`grouped_qk` for the probability-times-values contraction.
    """
    h, s_q, s_k = p.shape
    h_kv, _, d = v.shape
    if h == h_kv:
        return np.matmul(p, v)
    p4 = p.reshape(h_kv, h // h_kv, s_q, s_k)
    out = np.matmul(p4, v[:, None])
    return out.reshape(h, s_q, d)


def decode_row_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    *,
    return_probs: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Single-row GQA attention: one decode token against its whole cache.

    A decode step is one read of ``k`` and one of ``v``, and both GEMMs
    are shaped so that the read runs at memory bandwidth at every cache
    length.  The value contraction ``s @ v`` has the cache as its
    row-major right operand; the score contraction is ``k @ q^T``, not
    ``q @ k^T``: the cache view ``k (H_kv, S_k, d)`` is the *left*,
    row-major, untransposed operand and the query group -- ``scale``
    folded in, copied to a contiguous ``(H_kv, d, n_rep)``, a few hundred
    floats -- the right one.  (With ``k`` on the right the call is an
    ``M = n_rep`` GEMM against a transposed ``B``; past BLAS's
    small-matrix path, ``S_k`` ~ 700, that streams the cache at a quarter
    of the bandwidth ``s @ v`` reaches over the same bytes.  A
    non-contiguous ``q^T`` view does not avoid it.)  Strided views of an
    over-allocated cache go to BLAS as they are: no :func:`expand_kv`, no
    4-D broadcast, no copy of the cache, no read past ``S_k``.

    The ``(H_kv, S_k, n_rep)`` scores are laid out as one contiguous
    ``(H_kv, n_rep, S_k)`` buffer on which row max, subtract, clamp,
    ``exp`` and row sum run in place.  The clamp (``_EXP_CLAMP``) is what
    keeps ``exp`` and the value GEMM on their fast paths: real decode rows
    put a few percent of their scores 87-104 below the row max, whose
    weights would otherwise be float32 denormals.  Every weight is
    therefore a normal number ``>= exp(-60)``.  The output is normalised
    after the second matmul, and the buffer itself only when
    ``return_probs`` asks for the ``(H, 1, S_k)`` probabilities (the H2O
    mass feed).  A decode row attends to every cached key, so there is no
    mask and no dead row.

    The result is a function of this item's operands alone -- the batch
    invariance :func:`~repro.attention.packed.packed_decode_attention`
    promises -- and agrees with ``dense_attention(causal=False)`` to
    float32 summation tolerance, not bitwise (the row is normalised after
    the value contraction instead of before, ``scale`` multiplies the
    query instead of the scores).  Shapes are the caller's to validate.
    """
    h, _, d = q.shape
    h_kv, s_k, _ = k.shape
    qt = np.multiply(
        q.reshape(h_kv, h // h_kv, d).transpose(0, 2, 1), scale, order="C"
    )
    s = np.ascontiguousarray(np.matmul(k, qt).transpose(0, 2, 1))
    s -= s.max(axis=-1, keepdims=True)
    np.maximum(s, _EXP_CLAMP, out=s)
    np.exp(s, out=s)
    z = s.sum(axis=-1, keepdims=True)
    out = np.matmul(s, v)
    out /= z
    out = out.reshape(h, 1, d).astype(q.dtype, copy=False)
    if not return_probs:
        return out, None
    s /= z
    return out, s.reshape(h, 1, s_k)


def attention_scores(
    q: np.ndarray, k: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Scaled dot-product logits ``(H, S_q, S_k)`` (GQA-aware).

    ``scale`` defaults to ``1/sqrt(d)``.
    """
    h, h_kv, _, _, d = validate_qkv(q, k, k)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return grouped_qk(q, k) * np.float32(scale)


def masked_row_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of ``scores`` restricted to ``mask`` (broadcast over heads).

    ``mask`` is boolean with ``True`` = keep; fully masked rows yield zeros.
    """
    masked = np.where(mask, scores, NEG_INF)
    return softmax(masked, axis=-1)
