"""Decoder building blocks: normalisation, gated MLP, attention layer.

The attention layer owns the projection + rotary plumbing and the output
projection; the score/softmax/value computation between them is the
attend function of :meth:`~repro.model.Transformer.prefill_chunk_batch`
or :meth:`~repro.model.Transformer.decode_batch`, which is how the harness
swaps SampleAttention and the baselines in and out per run -- mirroring the
paper, which replaces only the prefill attention implementation.
"""

from __future__ import annotations

import numpy as np

from .. import pool
from ..errors import ModelError
from .config import ModelConfig
from .rope import rope_cos_sin, rotate_pairs
from .weights import LayerWeights

__all__ = ["rms_norm", "gated_mlp", "decode_gemm", "AttentionLayer"]


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


def decode_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a decode step's ``(B, K)`` rows against a C-contiguous
    ``(K, N)`` weight, every output row bitwise the same whatever ``B`` is.

    OpenBLAS's small-matrix kernel computes a row the same way at every row
    count it takes, so the rows go in groups of at most ``_SMALL_GEMM //
    (K * N)`` (a lone last row rides again with the one before it), and a
    lone row is computed twice over: numpy sends a one-row product to gemv,
    which sums in another order.  A weight too large for even two rows on
    that kernel takes :func:`_row_gemm`.  Unlike :func:`_row_gemm`, rows are
    never padded up to the blocked kernel, which costs a decode step of one
    or two requests several times its arithmetic.
    """
    m, k = x.shape
    group = _SMALL_GEMM // (k * w.shape[1])
    if group < 2:
        return _row_gemm(x, w)
    if m == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    if m <= group:
        return x @ w
    out = np.empty((m, w.shape[1]), dtype=np.result_type(x, w))
    for r0 in range(0, m, group):
        r0 = min(r0, m - 2)
        np.matmul(x[r0 : r0 + group], w, out=out[r0 : r0 + group])
    return out


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def gated_mlp(
    x: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray, matmul=np.matmul
) -> np.ndarray:
    """SwiGLU feed-forward: ``(silu(x @ w1) * (x @ w3)) @ w2``.

    Each product goes through ``matmul``; decode passes :func:`decode_gemm`.
    """
    return matmul(_silu(matmul(x, w1)) * matmul(x, w3), w2)


class AttentionLayer:
    """One decoder layer's attention weights: q/k/v in, heads merged out.

    Projects and rotates q/k/v, and merges heads through the output
    projection.  The layer is stateless with respect to sequences; the
    transformer appends keys/values to the caches and attends in between.
    """

    def __init__(self, config: ModelConfig, weights: LayerWeights) -> None:
        weights.validate(config)
        self.config = config
        self.weights = weights
        # The q/k/v weights as one C-contiguous ``(d_model, (H + 2 H_kv) e)``
        # array, one column per output feature (q heads, then k, then v) --
        # per head the columns ``np.einsum("sd,hde->hse")`` contracts
        # against -- built here, early, where a long-lived array does not
        # pin the heap.  Prefill and decode both read it as it is: BLAS
        # packs a transposed view on every call, which at decode's few rows
        # costs more than the product.
        self._qkv = np.concatenate(
            [
                m.transpose(1, 0, 2).reshape(config.d_model, -1)
                for m in (weights.wq, weights.wk, weights.wv)
            ],
            axis=1,
        )
        self._wo = np.ascontiguousarray(weights.wo.reshape(-1, config.d_model))

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
        return self._project(x, positions, with_q=True)

    def project_kv(
        self, x: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`project_qkv` without q: rotated ``k (H_kv, S, e)`` and raw
        ``v (H_kv, S, e)`` of rows whose attention output nobody reads.

        One GEMM against the k/v columns of the fused weight: the blocked
        kernel computes each output column on its own, so both are bitwise
        :meth:`project_qkv`'s k and v, at ``2 H_kv / (H + 2 H_kv)`` of its
        multiply-adds.
        """
        return self._project(x, positions, with_q=False)

    def _project(self, x, positions, *, with_q: bool) -> tuple:
        """``(q, k, v)`` of :meth:`project_qkv`, or ``(k, v)`` from the
        fused weight's k/v columns alone."""
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ModelError(f"residual shape {x.shape}")
        s = x.shape[0]
        h_kv, e = self.config.n_kv_heads, self.config.d_head
        h = self.config.n_heads if with_q else 0
        positions = np.asarray(positions)
        w = self._qkv[:, (self.config.n_heads - h) * e :]

        def rotate(rows, r0, r1):
            cos, sin = rope_cos_sin(
                positions[r0:r1], self.config.rot_dim, self.config.rope_base
            )
            qk = rows.reshape(r1 - r0, h + 2 * h_kv, e)[:, : h + h_kv]
            rotate_pairs(qk, cos[:, None], sin[:, None])

        heads = _row_gemm(x, w, rotate).reshape(s, h + 2 * h_kv, e)
        cuts = [0, h, h + h_kv, h + 2 * h_kv] if h else [0, h_kv, 2 * h_kv]
        return tuple(
            _f32(heads[:, lo:hi].transpose(1, 0, 2))
            for lo, hi in zip(cuts, cuts[1:])
        )

    def project_qkv_decode_batch(
        self, x_rows: np.ndarray, cos: np.ndarray, sin: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A decode step's q/k/v: one :func:`decode_gemm` of every request's
        row against the fused weight, rotated in place.

        ``x_rows``: ``(B, d_model)`` normalised residual rows, one per
        decoding request; ``cos``/``sin``: ``(B, n_pairs)`` rotary rows for
        each request's position (computed once per step and shared across
        layers: the tables depend only on position).

        Returns ``q (B, H, 1, e)``, ``k (B, H_kv, 1, e)``,
        ``v (B, H_kv, 1, e)``, views of the one GEMM output; slice ``[b]``
        is bitwise the same whatever else shares the batch, since the GEMM
        keeps every row's bits its own and the rotation is elementwise.
        """
        if x_rows.ndim != 2 or x_rows.shape[1] != self.config.d_model:
            raise ModelError(f"residual rows shape {x_rows.shape}")
        h, h_kv = self.config.n_heads, self.config.n_kv_heads
        heads = decode_gemm(x_rows, self._qkv).reshape(
            len(x_rows), h + 2 * h_kv, 1, self.config.d_head
        )
        rotate_pairs(heads[:, : h + h_kv], cos[:, None, None], sin[:, None, None])
        return (
            _f32(heads[:, :h]),
            _f32(heads[:, h : h + h_kv]),
            _f32(heads[:, h + h_kv :]),
        )

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
        merged = _row_gemm(rows, self._wo)
        return [merged[r0:r1] for r0, r1 in zip(cuts, cuts[1:])]

    def merge_decode(self, outs: np.ndarray) -> np.ndarray:
        """A decode step's output projection: stacked ``(B, H, 1, e)``
        attention outputs to ``(B, d_model)`` rows in one
        :func:`decode_gemm` against the flat ``wo``, each row bitwise
        independent of the batch.  It is not bitwise :meth:`merge_chunks`,
        which pads a lone row onto BLAS's blocked kernel; decode never
        mixes the two."""
        return decode_gemm(outs.reshape(len(outs), -1), self._wo)
