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

    # Descending sort per head: order[h] holds column ids by decreasing mass.
    order = np.argsort(-column_scores, axis=1, kind="stable")
    sorted_mass = np.take_along_axis(column_scores, order, axis=1)
    cum = np.cumsum(sorted_mass, axis=1)
    total = cum[:, -1] if s_k else np.zeros(h)
    safe_total = np.where(total <= 0.0, 1.0, total)
    share = cum / safe_total[:, None]

    if mode == "exact":
        # Smallest k with share[k-1] >= alpha.  searchsorted on the
        # monotone share curve; alpha - tiny guards float equality.
        eps = np.float64(1e-9)
        k_per_head = np.array(
            [int(np.searchsorted(share[i], alpha - eps) + 1) for i in range(h)],
            dtype=np.int64,
        )
    else:
        ratios = np.asarray(PAPER_PREFIX_RATIOS, dtype=np.float64)
        grid_k = np.maximum(1, np.ceil(ratios * s_k).astype(np.int64))
        grid_k = np.minimum(grid_k, s_k)
        k_per_head = np.empty(h, dtype=np.int64)
        for i in range(h):
            grid_share = share[i, grid_k - 1]
            j = int(np.searchsorted(grid_share, alpha - 1e-9))
            j = min(j, grid_k.size - 1)
            k_per_head[i] = grid_k[j]

    k_per_head = np.clip(k_per_head, max(min_keep, 1), s_k)
    # Heads with zero sampled mass: fall back to the leading columns.
    dead = total <= 0.0
    kv_indices: list[np.ndarray] = []
    achieved = np.empty(h, dtype=np.float64)
    for i in range(h):
        kk = int(k_per_head[i])
        if dead[i]:
            idx = np.arange(min(max(min_keep, 1), s_k), dtype=np.int64)
            achieved[i] = 0.0
        else:
            idx = np.sort(order[i, :kk])
            achieved[i] = float(share[i, kk - 1])
        kv_indices.append(idx)

    kv_ratio = np.array([len(ix) / max(s_k, 1) for ix in kv_indices])
    if contracts.enabled():
        contracts.check_selection(kv_indices, achieved, alpha, s_k)
    return FilterResult(
        kv_indices=kv_indices,
        kv_ratio=kv_ratio,
        achieved_share=achieved,
    )
