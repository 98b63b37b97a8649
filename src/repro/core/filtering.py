"""Stage 2 of SampleAttention: score-based key-value filtering.

Given the per-column probability mass estimated by stage 1, select -- per
head -- the minimal set of key/value indices ``I_KV`` whose cumulative mass
reaches the CRA threshold ``alpha`` (paper Equation 6, approximated by the
column statistic; Figure 3, step 2).

Two selection modes are provided:

* ``exact`` -- sort columns by mass, take the shortest prefix whose share of
  total mass is ``>= alpha``.  This is the textbook reading of Equation 6.
* ``quantized`` -- the paper's Algorithm 1: evaluate the cumulative share
  only at the fixed geometric grid :data:`PAPER_PREFIX_RATIOS` and
  ``searchsorted`` the threshold into it.  This rounds the kept ratio *up*
  to a grid point, which is what a static-shape GPU kernel wants, at the
  cost of keeping slightly more columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audit import contracts
from ..errors import ConfigError

__all__ = [
    "PAPER_PREFIX_RATIOS",
    "FilterResult",
    "select_kv_indices",
]

PAPER_PREFIX_RATIOS: tuple[float, ...] = (
    0.0125,
    0.025,
    0.05,
    0.1,
    0.2,
    0.4,
    0.8,
    1.0,
)
"""The ``prefixsum_sample_list`` grid from the paper's Algorithm 1."""


@dataclass(frozen=True)
class FilterResult:
    """Per-head key/value selection.

    Attributes
    ----------
    kv_indices:
        Length-``H`` list; element ``h`` holds the selected key indices for
        head ``h``, sorted ascending (kernel-friendly order).
    kv_ratio:
        ``(H,)`` fraction of key columns kept per head -- the paper's
        ``KV_ratio_per_head`` and the direct input to the speedup model.
    achieved_share:
        ``(H,)`` fraction of sampled column mass covered by the selection
        (>= alpha by construction, except when ``min_keep``/short inputs
        force the whole sequence).
    """

    kv_indices: list[np.ndarray]
    kv_ratio: np.ndarray
    achieved_share: np.ndarray


def select_kv_indices(
    column_scores: np.ndarray,
    alpha: float,
    *,
    min_keep: int = 1,
    mode: str = "exact",
) -> FilterResult:
    """Select per-head top-k key indices covering an ``alpha`` share of mass.

    Parameters
    ----------
    column_scores:
        ``(H, S_k)`` non-negative column mass from stage 1.
    alpha:
        CRA threshold in ``(0, 1]``.
    min_keep:
        Keep at least this many columns per head (guards tiny inputs).
    mode:
        ``"exact"`` or ``"quantized"`` (see module docstring).

    Notes
    -----
    A head whose sampled mass is all zero (fully masked sampling, only
    possible on degenerate inputs) keeps ``min_keep`` leading columns.
    """
    if column_scores.ndim != 2:
        raise ConfigError(
            f"column_scores must be (H, S_k), got rank {column_scores.ndim}"
        )
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if mode not in ("exact", "quantized"):
        raise ConfigError(f"unknown mode {mode!r}")
    if np.any(column_scores < 0):
        raise ConfigError("column_scores must be non-negative")

    h, s_k = column_scores.shape
    min_keep = int(np.clip(min_keep, 0, s_k))

    # The mass in descending order -- the order of ``np.argsort(-x,
    # kind="stable")`` -- from one unstable (SIMD) sort of the values: no
    # permutation is needed, only the values and which columns come first.
    neg = -column_scores
    neg_sorted = np.sort(neg, axis=1)
    cum = np.cumsum(_descending_mass(column_scores, neg, neg_sorted), axis=1)
    total = cum[:, -1] if s_k else np.zeros(h)
    safe_total = np.where(total <= 0.0, 1.0, total)
    share = cum / safe_total[:, None]

    # Each row of ``share`` is non-decreasing with any NaNs last -- the
    # order ``np.searchsorted`` assumes -- so counting the entries below
    # the threshold is its left insertion point.  Compared in float64,
    # which holds both operands exactly.
    if mode == "exact":
        # Smallest k with share[k-1] >= alpha; alpha - tiny guards float
        # equality.
        eps = np.float64(1e-9)
        k_per_head = _count_below(share, alpha - eps) + 1
    else:
        ratios = np.asarray(PAPER_PREFIX_RATIOS, dtype=np.float64)
        grid_k = np.maximum(1, np.ceil(ratios * s_k).astype(np.int64))
        grid_k = np.minimum(grid_k, s_k)
        # With no heads no grid column is read (at s_k = 0 there is none).
        grid_share = share[:, grid_k - 1] if h else share
        j = _count_below(grid_share, alpha - 1e-9)
        k_per_head = grid_k[np.minimum(j, grid_k.size - 1)]

    k_per_head = np.clip(k_per_head, max(min_keep, 1), s_k)
    # Heads with zero sampled mass keep the leading columns -- their
    # descending order is the identity, all columns being tied at zero.
    dead = total <= 0.0
    keep_n = np.where(dead, min(max(min_keep, 1), s_k), k_per_head)
    if h and s_k:
        chosen = _first_columns(neg, neg_sorted, keep_n)
    else:
        chosen = np.zeros((h, s_k), dtype=bool)
    # Row-major nonzeros: every head's kept columns, each head ascending.
    columns = np.nonzero(chosen)[1]
    starts = np.concatenate(([0], np.cumsum(keep_n))).tolist()
    kv_indices = [columns[a:b] for a, b in zip(starts[:-1], starts[1:])]
    achieved = np.zeros(h, dtype=np.float64)
    if s_k:
        achieved[:] = share[np.arange(h), k_per_head - 1]
        achieved[dead] = 0.0

    kv_ratio = keep_n / max(s_k, 1)
    if contracts.enabled():
        contracts.check_selection(kv_indices, achieved, alpha, s_k)
    return FilterResult(
        kv_indices=kv_indices,
        kv_ratio=kv_ratio,
        achieved_share=achieved,
    )


def _descending_mass(
    x: np.ndarray, neg: np.ndarray, neg_sorted: np.ndarray
) -> np.ndarray:
    """``x`` along its stable descending order, bit for bit, from the
    sorted ``-x``.  Equal values are interchangeable except ``±0`` and NaN
    payloads, which the stable order lists in column order: those are put
    back that way (each row holds as many in both layouts)."""
    mass = -neg_sorted
    for sorted_at, at in (
        (neg_sorted == 0, neg == 0),
        (neg_sorted != neg_sorted, neg != neg),
    ):
        if at.any():
            mass[sorted_at] = x[at]
    return mass


def _first_columns(
    neg: np.ndarray, neg_sorted: np.ndarray, keep_n: np.ndarray
) -> np.ndarray:
    """``(H, S_k)`` mask of each head's first ``keep_n`` columns in the
    stable descending order: every column sorting strictly before the
    ``keep_n``-th value, then the columns equal to it, lowest index first,
    until ``keep_n`` are kept.  NaNs sort after every number."""
    h = neg.shape[0]
    cut = neg_sorted[np.arange(h), keep_n - 1][:, None]
    before = neg < cut
    tied = neg == cut
    nan_cut = cut != cut
    if nan_cut.any():
        before |= nan_cut & (neg == neg)
        tied |= nan_cut & (neg != neg)
    need = keep_n - np.count_nonzero(before, axis=1)
    return before | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))


def _count_below(a: np.ndarray, threshold) -> np.ndarray:
    """Per row of ``a``, how many entries are below ``threshold``."""
    return np.count_nonzero(
        a.astype(np.float64, copy=False) < np.float64(threshold), axis=1
    )
