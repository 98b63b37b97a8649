"""Diagonal-pattern detection (paper Appendix A.6 future work).

The paper notes "additional diagonal structures in heads with lower
sparsity levels" that its window+stripe mask can only cover by keeping many
KVs, and proposes capturing them explicitly.  A diagonal at relative offset
``D`` means query ``i`` attends to key ``i - D`` (e.g. heads tracking a
fixed-period structure in the prompt); in mask terms it is a *distance
band* ``[D - pad, D + pad)`` parallel to the local window.

This module detects such bands from the same stage-1 sampled rows the
stripe filter uses: fold each sampled row's exact probabilities onto
relative-distance coordinates, average, and report distances (outside the
local window) holding more than ``min_mass`` of a typical row's attention.
The detected bands ride on the plan as ``extras["bands"]`` and the packed
kernel executes them as extra band GEMMs parallel to the window, so
capturing a diagonal costs ``O(S * band_width)`` instead of the huge stripe
set the column statistic would otherwise select.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.utils import expand_kv, validate_qkv
from ..errors import ConfigError
from .sampling import sampled_row_indices

__all__ = ["DiagonalProfile", "diagonal_profile", "detect_diagonal_bands"]


@dataclass(frozen=True)
class DiagonalProfile:
    """Mean sampled attention mass as a function of relative distance.

    Attributes
    ----------
    mass:
        ``(H, D)`` mean probability a query puts at distance ``delta``
        (averaged over the sampled rows that can reach that distance).
    coverage:
        ``(D,)`` number of sampled rows contributing to each distance.
    """

    mass: np.ndarray
    coverage: np.ndarray


def diagonal_profile(
    q: np.ndarray,
    k: np.ndarray,
    *,
    r_row: float = 0.05,
    scale: float | None = None,
    from_end: bool = True,
    max_distance: int | None = None,
) -> DiagonalProfile:
    """Fold sampled exact attention rows onto relative-distance coordinates.

    Computes softmax rows for the stage-1 sampled queries and accumulates
    ``P[i, i - delta]`` per head over ``delta`` -- the statistic that makes
    diagonals (including the trivial one at ``delta ~ 0``) visible.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = np.float32(scale)
    offset = s_k - s_q
    max_distance = s_k if max_distance is None else int(max_distance)
    if max_distance < 1:
        raise ConfigError(f"max_distance must be >= 1, got {max_distance}")

    rows = sampled_row_indices(s_q, r_row, from_end=from_end)
    k_full = expand_kv(k, h // h_kv).astype(np.float32, copy=False)
    qf = q.astype(np.float32, copy=False)

    mass = np.zeros((h, max_distance), dtype=np.float64)
    coverage = np.zeros(max_distance, dtype=np.int64)
    for i in rows:
        pos = int(i) + offset
        s = np.einsum(
            "hd,hnd->hn", qf[:, i], k_full[:, : pos + 1], optimize=True
        ) * scale
        m = s.max(axis=-1, keepdims=True)
        p = np.exp(s - m)
        p /= p.sum(axis=-1, keepdims=True)
        reach = min(pos + 1, max_distance)
        # distance delta corresponds to key column pos - delta.
        mass[:, :reach] += p[:, pos::-1][:, :reach]
        coverage[:reach] += 1
    denom = np.maximum(coverage, 1).astype(np.float64)
    return DiagonalProfile(mass=mass / denom[None, :], coverage=coverage)


def detect_diagonal_bands(
    q: np.ndarray,
    k: np.ndarray,
    *,
    window: int = 0,
    r_row: float = 0.05,
    scale: float | None = None,
    min_mass: float = 0.05,
    pad: int = 4,
    max_bands: int = 4,
    max_distance: int | None = None,
) -> list[tuple[int, int]]:
    """Detect diagonal distance bands worth adding to the structured mask.

    Parameters
    ----------
    window:
        Local window already covered by the plan; distances below it are
        ignored (they are not "additional" structure).
    min_mass:
        Minimum mean per-row probability a single distance must hold to
        count as a diagonal (0.05 = one relative offset carrying 5% of a
        typical row's attention -- far above the uniform floor).
    pad:
        Half-width added around each detected distance.
    max_bands:
        Keep at most this many bands (strongest first), merged when close.

    Returns
    -------
    Disjoint ``(d_lo, d_hi)`` distance intervals, shared across heads (the
    kernel applies one band set per call), sorted by distance.
    """
    if not 0.0 < min_mass <= 1.0:
        raise ConfigError(f"min_mass must be in (0, 1], got {min_mass}")
    if pad < 0 or max_bands < 1:
        raise ConfigError("pad must be >= 0 and max_bands >= 1")
    profile = diagonal_profile(
        q, k, r_row=r_row, scale=scale, max_distance=max_distance
    )
    peak_mass = profile.mass.max(axis=0)  # strongest head per distance
    candidates = np.nonzero(peak_mass >= min_mass)[0]
    candidates = candidates[candidates >= max(window, 0)]
    if candidates.size == 0:
        return []

    # Strongest-first greedy selection, each claiming a +-pad interval.
    order = candidates[np.argsort(-peak_mass[candidates], kind="stable")]
    chosen: list[tuple[int, int]] = []
    for delta in order:
        lo, hi = int(delta) - pad, int(delta) + pad + 1
        if any(lo < h_ and hi > l_ for l_, h_ in chosen):
            continue
        chosen.append((max(lo, 0), hi))
        if len(chosen) >= max_bands:
            break
    return sorted(chosen)
