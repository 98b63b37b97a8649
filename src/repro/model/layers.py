"""Decoder building blocks: normalisation, gated MLP, attention layer.

The attention layer owns the projection + rotary plumbing and delegates the
actual score/softmax/value computation to an
:class:`~repro.backends.AttentionBackend`, which is how the harness swaps
SampleAttention and the baselines in and out per run -- mirroring the paper,
which replaces only the prefill attention implementation.
"""

from __future__ import annotations

import numpy as np

from .. import pool
from ..attention.dense import dense_attention
from ..backends import AttentionBackend
from ..errors import ModelError
from .config import ModelConfig
from .kv_cache import LayerKVCache
from .rope import apply_rope_batched, rope_cos_sin, rotate_pairs
from .weights import LayerWeights

__all__ = ["rms_norm", "gated_mlp", "gated_mlp_rows", "AttentionLayer"]


def rms_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square normalisation over the last axis (no learned gain)."""
    rms = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / rms


def _f32(x: np.ndarray) -> np.ndarray:
    """``x`` as float32: the array itself when it already is (float32
    weights and embeddings make every projection float32), so callers must
    not write to the result -- the KV append and the kernels copy."""
    return x.astype(np.float32, copy=False)


#: OpenBLAS runs a GEMM of at most ``100**3`` multiply-adds through its
#: small-matrix kernels, and one row through gemv; both accumulate in
#: another order than the blocked kernel every larger GEMM takes.
_SMALL_GEMM = 100**3

#: Fewest rows a pool unit of :func:`_row_gemm` gets.
_SPLIT_ROWS = 64


def _row_gemm(x: np.ndarray, w: np.ndarray, epilogue=None) -> np.ndarray:
    """``x @ w`` for ``(M, K)`` rows against a ``(K, N)`` weight, every
    output row a function of its own input row alone.

    The blocked BLAS kernel computes a row the same way whatever ``M`` is,
    so the call is kept on it: fewer rows than clear the small-matrix
    cut-off (two at least) are zero-padded up to it, and more rows are cut
    into contiguous parts of at least ``_SPLIT_ROWS`` on :mod:`repro.pool`.
    Either way the result is bitwise the rows' own.  ``epilogue(out_rows,
    r0, r1)``, if given, finishes output rows ``[r0, r1)`` in place right
    after their GEMM, in the same pool unit; it must be row-wise too.
    """
    x = np.ascontiguousarray(x)
    m, k = x.shape
    floor = max(2, _SMALL_GEMM // (k * w.shape[1]) + 1)
    if m < floor:
        padded = np.zeros((floor, k), dtype=x.dtype)
        padded[:m] = x
        out = (padded @ w)[:m]
        if epilogue is not None:
            epilogue(out, 0, m)
        return out
    parts = max(1, min(pool.workers(), m // max(floor, _SPLIT_ROWS)))
    out = np.empty((m, w.shape[1]), dtype=np.result_type(x, w))
    cuts = [m * p // parts for p in range(parts + 1)]

    def part(p):
        r0, r1 = cuts[p], cuts[p + 1]
        np.matmul(x[r0:r1], w, out=out[r0:r1])
        if epilogue is not None:
            epilogue(out[r0:r1], r0, r1)

    pool.run(part, range(parts))
    return out


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def gated_mlp(x: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> np.ndarray:
    """SwiGLU feed-forward: ``(silu(x @ w1) * (x @ w3)) @ w2``."""
    return (_silu(x @ w1) * (x @ w3)) @ w2


def gated_mlp_rows(
    x_rows: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray
) -> np.ndarray:
    """Row-batched :func:`gated_mlp` over ``(B, d_model)`` residual rows.

    The three projections stay one GEMM *per row* (a batched M=B GEMM
    takes a different BLAS accumulation path than M=1, so a row's bits
    would depend on how many requests share the step), while the
    elementwise SiLU gate runs once over the stacked activations.  Row
    *b* of the result is bitwise identical to
    ``gated_mlp(x_rows[b:b+1], ...)``.
    """
    n = x_rows.shape[0]
    a = np.concatenate([x_rows[b : b + 1] @ w1 for b in range(n)], axis=0)
    c = np.concatenate([x_rows[b : b + 1] @ w3 for b in range(n)], axis=0)
    g = _silu(a) * c
    return np.concatenate([g[b : b + 1] @ w2 for b in range(n)], axis=0)


class AttentionLayer:
    """One decoder layer's attention: project, rotate, attend, merge.

    The layer is stateless with respect to sequences; the caller supplies
    the residual stream and (for decode) the KV cache.
    """

    def __init__(self, config: ModelConfig, weights: LayerWeights) -> None:
        weights.validate(config)
        self.config = config
        self.weights = weights
        self._scale = 1.0 / np.sqrt(config.d_head)
        # The q/k/v weights as one ``((H + 2 H_kv) e, d_model)`` array, one
        # row per output feature (q heads, then k, then v), built here --
        # early, where a long-lived array does not pin the heap.  Both
        # phases read this one copy: decode its row blocks as per-row GEMV
        # operands (:meth:`_decode_proj_weights`), prefill its transpose,
        # which BLAS reads in place as the fused ``(d_model, (H + 2 H_kv)
        # e)`` weight -- per head the columns ``np.einsum("sd,hde->hse")``
        # contracts against, so a row's bits match that einsum's wherever
        # both take the blocked kernel.
        self._qkv = np.concatenate(
            [
                m.transpose(0, 2, 1).reshape(-1, config.d_model)
                for m in (weights.wq, weights.wk, weights.wv)
            ]
        )

    # ------------------------------------------------------------- helpers
    def project_qkv(
        self, x: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project normalised residual rows to rotated q/k and raw v.

        ``x``: ``(S, d_model)`` -- one chunk's rows, or the concatenated
        rows of every chunk of a prefill step (token packing);
        ``positions``: each row's absolute position for the rotary tables.
        Returns ``q (H, S, e)``, ``k (H_kv, S, e)``, ``v (H_kv, S, e)``.

        The three projections are one GEMM against the fused ``(d_model,
        (H + 2 H_kv) e)`` weight built at construction (through
        :func:`_row_gemm`), and the rotation -- tables included -- is
        elementwise, so every row's q/k/v are bitwise the same whichever
        other rows share the call.  Each pool part of the GEMM rotates its
        own rows.  q, k and v are strided views of that one GEMM output,
        rotated in place: packing a step's chunks holds no more than their
        q/k/v.
        """
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ModelError(f"residual shape {x.shape}")
        s = x.shape[0]
        h, h_kv, e = self.config.n_heads, self.config.n_kv_heads, self.config.d_head
        positions = np.asarray(positions)

        def rotate(rows, r0, r1):
            cos, sin = rope_cos_sin(
                positions[r0:r1], self.config.rot_dim, self.config.rope_base
            )
            qk = rows.reshape(r1 - r0, h + 2 * h_kv, e)[:, : h + h_kv]
            rotate_pairs(qk, cos[:, None], sin[:, None])

        heads = _row_gemm(x, self._qkv.T, rotate).reshape(s, h + 2 * h_kv, e)
        q, k, v = (
            heads[:, lo:hi].transpose(1, 0, 2)
            for lo, hi in ((0, h), (h, h + h_kv), (h + h_kv, h + 2 * h_kv))
        )
        return _f32(q), _f32(k), _f32(v)

    def project_qkv_decode_batch(
        self, x_rows: np.ndarray, cos: np.ndarray, sin: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched single-token projection for fused decode.

        ``x_rows``: ``(B, d_model)`` normalised residual rows, one per
        decoding request; ``cos``/``sin``: ``(B, n_pairs)`` rotary rows
        for each request's position (precomputed once per batch step and
        shared across layers -- the tables depend only on position, so
        per-request decode recomputing them per layer does 4x the work
        for bitwise-identical values).  The three projections stay one
        GEMV *per row* (a stacked M=B GEMM takes a different BLAS
        accumulation path than M=1, so a row's bits would depend on the
        batch it rode in -- and measured no gain), while the rotary
        rotation and the float32 casts -- pure elementwise work -- run
        once over the stacked batch.

        Returns ``q (B, H, 1, e)``, ``k (B, H_kv, 1, e)``,
        ``v (B, H_kv, 1, e)``; slice ``[b]`` is bitwise the same whatever
        else shares the batch.

        Each row is one ``np.dot`` against a cached ``(H*e, d)`` operand
        (:meth:`_decode_proj_weights`): the call ``np.einsum("sd,hde->hse")``
        reduces to at ``S = 1``, without re-copying the transposed weight
        and without the einsum dispatch that dominates single-token decode.
        """
        n = x_rows.shape[0]
        if x_rows.ndim != 2 or x_rows.shape[1] != self.config.d_model:
            raise ModelError(f"residual rows shape {x_rows.shape}")
        h, h_kv = self.config.n_heads, self.config.n_kv_heads
        e, d = self.config.d_head, self.config.d_model
        pq, pk, pv = self._decode_proj_weights()
        cols = [x_rows[b].reshape(d, 1) for b in range(n)]
        qs = np.stack(
            [np.dot(pq, c).reshape(h, e, 1).transpose(0, 2, 1) for c in cols]
        )
        ks = np.stack(
            [np.dot(pk, c).reshape(h_kv, e, 1).transpose(0, 2, 1) for c in cols]
        )
        vs = np.stack(
            [np.dot(pv, c).reshape(h_kv, e, 1).transpose(0, 2, 1) for c in cols]
        )
        cb = cos[:, None, :]  # (B, S=1, n_pairs)
        sb = sin[:, None, :]
        q = apply_rope_batched(qs, cb, sb)
        k = apply_rope_batched(ks, cb, sb)
        return _f32(q), _f32(k), _f32(vs)

    def _decode_proj_weights(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(H*e, d_model)``, ``(H_kv*e, d_model)`` and ``(H_kv*e,
        d_model)`` decode GEMV operands: C-contiguous row blocks of the
        fused q/k/v rows, i.e. the transposed weight copy
        ``np.einsum("sd,hde->hse", x, w, optimize=True)`` makes on *every*
        call at ``S = 1`` before its one GEMV -- built once, so the BLAS
        call and the bits are the einsum's without the per-call copy.
        """
        rows = self._qkv
        q_rows = self.config.n_heads * self.config.d_head
        kv_rows = self.config.n_kv_heads * self.config.d_head
        return (
            rows[:q_rows],
            rows[q_rows : q_rows + kv_rows],
            rows[q_rows + kv_rows :],
        )

    def merge_heads(self, attn_out: np.ndarray) -> np.ndarray:
        """``(H, S, e) -> (S, d_model)`` via the output projection: a
        :meth:`merge_chunks` of one."""
        return self.merge_chunks([attn_out])[0]

    def merge_chunks(self, outs: list[np.ndarray]) -> list[np.ndarray]:
        """The output projection of several chunks' attention outputs
        ``(H, S_b, e)`` as one token-packed GEMM: their head-flattened rows
        through :func:`_row_gemm` against the flat ``wo``.  Returns each
        chunk's ``(S_b, d_model)`` rows, bitwise independent of the other
        chunks."""
        h, _, e = outs[0].shape
        cuts = np.cumsum([0] + [o.shape[1] for o in outs])
        rows = np.empty((cuts[-1], h * e), dtype=np.result_type(*outs))
        for o, r0, r1 in zip(outs, cuts, cuts[1:]):
            rows[r0:r1].reshape(-1, h, e)[...] = o.transpose(1, 0, 2)
        merged = _row_gemm(rows, self.weights.wo.reshape(-1, self.config.d_model))
        return [merged[r0:r1] for r0, r1 in zip(cuts, cuts[1:])]

    def merge_heads_decode(self, attn_out: np.ndarray) -> np.ndarray:
        """``(H, 1, e) -> (1, d_model)``: the decode step's output
        projection.

        One ``(1, H*e) @ (H*e, d_model)`` product against a view of
        ``wo``, issued per decode row, so a row's bits never depend on the
        batch it rode in.  It is not bitwise :meth:`merge_heads`, which
        pads a lone row onto BLAS's blocked kernel; decode never mixes
        the two.
        """
        h, e = self.config.n_heads, self.config.d_head
        flat = attn_out.transpose(1, 0, 2).reshape(1, h * e)
        return flat @ self.weights.wo.reshape(h * e, self.config.d_model)

    # ------------------------------------------------------------- prefill
    def prefill(
        self,
        x: np.ndarray,
        backend: AttentionBackend,
        *,
        cache: LayerKVCache | None = None,
        prob_hook=None,
        layer_index: int = 0,
    ) -> np.ndarray:
        """Full-sequence attention through ``backend``.

        Returns the residual *delta* (caller adds it).  When ``cache`` is
        given, the rotated keys/values are appended for later decoding.
        ``prob_hook(probs)`` -- if provided -- receives the *dense full
        attention* probabilities ``(H, S, S)`` for analysis (computed with
        the gold kernel regardless of ``backend``; expensive).
        """
        s = x.shape[0]
        positions = np.arange(s, dtype=np.int64)
        q, k, v = self.project_qkv(x, positions)
        out = backend.prefill(q, k, v, scale=self._scale, layer=layer_index)
        if cache is not None:
            cache.append(k, v, positions)
        if prob_hook is not None:
            probs = dense_attention(
                q, k, v, causal=True, scale=self._scale, return_probs=True
            ).probs
            prob_hook(probs)
        return self.merge_heads(out)
