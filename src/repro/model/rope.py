"""Rotary positional embedding (RoPE) with partial-dimension application.

Matches the convention of the paper's backbones: only the first ``rot_dim``
dimensions of each head vector are rotated (ChatGLM2-style partial rotary);
pair ``m`` occupies dims ``(2m, 2m+1)`` and rotates at angular frequency
``base**(-2m / rot_dim)``, optionally divided by a linear *rope-scaling*
factor (InternLM2's length-extrapolation mechanism).

The rotation for position ``p`` acting on a pair ``(x, y)`` is::

    (x cos(theta p) - y sin(theta p),  x sin(theta p) + y cos(theta p))

so ``<R(i) q, R(j) k>`` depends only on the relative offset ``j - i`` --
the property both the real models and the constructed positional-kernel
circuits (:mod:`repro.model.circuits`) rely on.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError

__all__ = [
    "rope_frequencies",
    "rope_cos_sin",
    "apply_rope",
    "rotate_pairs",
]


def rope_frequencies(
    rot_dim: int, base: float = 10000.0, scale: float = 1.0
) -> np.ndarray:
    """Angular frequencies ``theta_m`` for each rotary pair, shape
    ``(rot_dim // 2,)``, descending geometrically from 1.

    ``scale > 1`` divides every frequency (linear rope scaling), stretching
    the positional kernels to longer contexts.
    """
    if rot_dim % 2 != 0 or rot_dim <= 0:
        raise ConfigError(f"rot_dim must be a positive even int, got {rot_dim}")
    if base <= 1.0:
        raise ConfigError(f"base must be > 1, got {base}")
    if scale <= 0.0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    m = np.arange(rot_dim // 2, dtype=np.float64)
    return base ** (-2.0 * m / rot_dim) / scale


def rope_cos_sin(
    positions: np.ndarray, rot_dim: int, base: float = 10000.0, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Precompute ``cos`` / ``sin`` tables, each ``(len(positions), rot_dim//2)``."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 1:
        raise ShapeError(f"positions must be rank-1, got rank {positions.ndim}")
    freqs = rope_frequencies(rot_dim, base, scale)
    angles = positions[:, None] * freqs[None, :]
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the first ``2 * cos.shape[1]`` dims of per-head vectors.

    Parameters
    ----------
    x:
        ``(H, S, d_head)`` query or key tensor.
    cos, sin:
        ``(S, n_pairs)`` tables from :func:`rope_cos_sin`; ``2 * n_pairs``
        must not exceed ``d_head``.

    Returns a new array; the non-rotary tail ``x[..., 2*n_pairs:]`` is
    copied through unchanged.
    """
    if x.ndim != 3:
        raise ShapeError(f"x must be (H, S, d_head), got rank {x.ndim}")
    n_pairs = cos.shape[1]
    rot = 2 * n_pairs
    if rot > x.shape[-1]:
        raise ShapeError(
            f"rotary width {rot} exceeds head dim {x.shape[-1]}"
        )
    if cos.shape[0] != x.shape[1] or sin.shape != cos.shape:
        raise ShapeError(
            f"cos/sin tables {cos.shape}/{sin.shape} do not match S={x.shape[1]}"
        )
    out = x.copy()
    rotate_pairs(out, cos[None], sin[None])
    return out


def rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Rotate the first ``2 * cos.shape[-1]`` dims of ``x``'s last axis in
    place -- the arithmetic of :func:`apply_rope`, shapes unchecked.

    ``cos``/``sin`` broadcast against ``x[..., 0:rot:2]``.  Each element
    is computed from the same two inputs by the same expression whatever
    the layout, so rotating a strided view of a packed projection is
    bitwise equal to rotating each chunk's copy.
    """
    rot = 2 * cos.shape[-1]
    x1 = x[..., 0:rot:2]
    x2 = x[..., 1:rot:2]
    even = x1 * cos - x2 * sin
    odd = x1 * sin + x2 * cos
    x1[...] = even
    x2[...] = odd
