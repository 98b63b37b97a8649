"""Stage 1 of SampleAttention: query-guided attention sampling.

The paper's key efficiency idea (Section 4.2, Figure 3, step 1): instead of
computing the full ``(S_q, S_k)`` attention score matrix to decide which key
columns matter, compute *exact* softmax rows for a small strided subset of
queries (ratio ``r_row``) and accumulate those probabilities along columns.
The column-stripe structure of real attention (high row-wise similarity of
the large-value distribution, Figure 2e) makes this cheap estimate a faithful
proxy for full column mass.

The reference GPU implementation fuses the ``bmm -> mask -> softmax ->
column-reduction`` chain into one kernel so the ``l x S_k`` intermediate
never hits HBM; here we emulate the fusion by chunking over sampled rows so
peak memory stays ``O(chunk * S_k)`` per head regardless of ``r_row``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.utils import _EXP_CLAMP, NEG_INF, grouped_qk, validate_qkv
from ..errors import ConfigError

__all__ = [
    "SampleStats",
    "sampled_row_indices",
    "sample_column_scores",
]


@dataclass(frozen=True)
class SampleStats:
    """Column-mass estimate produced by stage 1.

    Attributes
    ----------
    column_scores:
        ``(H, S_k)`` accumulated softmax probability per key column over the
        sampled query rows.  Each head's scores sum to (number of sampled
        rows with any visible key), since each sampled softmax row sums to 1.
    row_indices:
        ``(l,)`` absolute query-row indices that were sampled.
    n_sampled:
        ``len(row_indices)``; kept separately for the performance model.
    """

    column_scores: np.ndarray
    row_indices: np.ndarray
    n_sampled: int


def sampled_row_indices(
    s_q: int, r_row: float, *, from_end: bool = True
) -> np.ndarray:
    """Strided query-row indices for a sampling ratio ``r_row``.

    With ``from_end=True`` (the library default) the stride grid is anchored
    at the *last* row, so the most recent queries -- during prefill, the
    user's actual question -- are always represented.  ``from_end=False``
    anchors at row 0, matching a plain ``arr[::stride]`` slice.

    The grid uses a renormalised fractional stride ``s_q / n`` (one index per
    stratum ``[floor(j*s_q/n), floor((j+1)*s_q/n))``), so every region of the
    sequence is reachable even when ``s_q % n != 0`` -- a truncated integer
    stride would leave the ``s_q - n*(s_q//n)`` rows farthest from the anchor
    permanently unsampled.

    Always returns at least one index for non-empty inputs.
    """
    if not 0.0 < r_row <= 1.0:
        raise ConfigError(f"r_row must be in (0, 1], got {r_row}")
    if s_q <= 0:
        return np.empty(0, dtype=np.int64)
    n = max(1, int(np.ceil(r_row * s_q)))
    offsets = (np.arange(n, dtype=np.int64) * s_q) // n
    if from_end:
        idx = (s_q - 1 - offsets)[::-1]
    else:
        idx = offsets
    return np.ascontiguousarray(idx)


def sample_column_scores(
    q: np.ndarray,
    k: np.ndarray,
    row_indices: np.ndarray,
    *,
    scale: float | None = None,
    causal: bool = True,
    chunk: int = 256,
    reduction: str = "sum",
) -> SampleStats:
    """Fused sample -> softmax -> column-reduction (Algorithm 1's
    ``sample_bmm_softmax_reduction``).

    Parameters
    ----------
    q, k:
        ``(H, S_q, d)`` queries and ``(H_kv, S_k, d)`` keys (GQA-aware).
    row_indices:
        Absolute query rows to sample (from :func:`sampled_row_indices`).
    chunk:
        Sampled rows processed per pass; bounds the transient score buffer
        at ``H * chunk * S_k`` floats (the fusion-emulation knob).
    reduction:
        ``"sum"`` (paper default: accumulate probability mass along columns),
        ``"max"`` (per-column max probability) or ``"mean"`` (mass averaged
        over the rows that can see the column, removing the causal bias
        towards early columns).  The ablation bench compares these.

    Returns
    -------
    :class:`SampleStats` with the ``(H, S_k)`` column-mass estimate.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)
    if reduction not in ("sum", "max", "mean"):
        raise ConfigError(f"unknown reduction {reduction!r}")
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = np.float32(scale)
    row_indices = np.asarray(row_indices, dtype=np.int64)
    if row_indices.size and (row_indices.min() < 0 or row_indices.max() >= s_q):
        raise ConfigError(
            f"row_indices out of range [0, {s_q}): "
            f"min={row_indices.min()}, max={row_indices.max()}"
        )

    kf = k.astype(np.float32, copy=False)  # stays at H_kv heads (no expand)
    qf = q.astype(np.float32, copy=False)
    offset = s_k - s_q
    col_pos = np.arange(s_k, dtype=np.int64)

    column = np.zeros((h, s_k), dtype=np.float32)
    visible_rows = np.zeros(s_k, dtype=np.int64)

    for c0 in range(0, row_indices.size, chunk):
        rows = row_indices[c0 : c0 + chunk]
        q_rows = qf[:, rows]  # (H, c, d)
        s = grouped_qk(q_rows, kf) * scale
        if causal:
            visible = col_pos[None, :] <= (rows + offset)[:, None]  # (c, S_k)
            s = np.where(visible[None], s, NEG_INF)
            visible_rows += visible.sum(axis=0)
        else:
            visible_rows += rows.size
        # Stable row softmax; the clamp keeps masked and far-below-max
        # entries off ``exp``'s underflow path (see ``_EXP_CLAMP``).
        s -= np.max(s, axis=-1, keepdims=True)
        np.maximum(s, _EXP_CLAMP, out=s)
        p = np.exp(s, out=s)
        if causal:
            p = np.where(visible[None], p, 0.0)
        z = np.sum(p, axis=-1, keepdims=True)
        z = np.where(z == 0.0, 1.0, z)
        p /= z
        if reduction == "max":
            column = np.maximum(column, p.max(axis=1))
        else:
            column += p.sum(axis=1)

    if reduction == "mean":
        denom = np.maximum(visible_rows, 1).astype(np.float32)
        column = column / denom[None, :]

    return SampleStats(
        column_scores=column,
        row_indices=row_indices,
        n_sampled=int(row_indices.size),
    )
