"""BigBird baseline (Zaheer et al., 2020) adapted to causal prefill.

BigBird combines three patterns: a sliding window, a set of global tokens,
and random attention.  Following the paper's evaluation setup (Section 5.2)
the window ratio matches SampleAttention's (8% of sequence length) and the
global ratio is 8%; random tiles fill a configurable extra budget.  Under a
causal mask, global tokens act as always-visible *columns* (the row
direction of BigBird's global attention cannot exist causally), which is
how the paper's comparison applies it to decoder-only models.
"""

from __future__ import annotations

import numpy as np

from ..attention.masks import (
    BlockMask,
    global_block_mask,
    random_block_mask,
    window_block_mask,
)
from ..backends import MaskedAttentionBackend
from ..errors import ConfigError

__all__ = ["BigBirdBackend"]


class BigBirdBackend(MaskedAttentionBackend):
    """Static window + global + random block attention.

    Parameters
    ----------
    window_ratio:
        Sliding-window width as a fraction of sequence length (paper: 0.08).
    global_ratio:
        Leading global-token span as a fraction of sequence length
        (paper: 0.08).
    random_ratio:
        Fraction of causal tiles activated at random, per head.
    block_size:
        Tile granularity shared with the kernel.
    seed:
        Base seed; the random component is re-drawn deterministically per
        (layer, sequence-length) pair so repeated runs are reproducible.
    """

    name = "bigbird"

    def __init__(
        self,
        *,
        window_ratio: float = 0.08,
        global_ratio: float = 0.08,
        random_ratio: float = 0.05,
        block_size: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__()
        for nm, val in (
            ("window_ratio", window_ratio),
            ("global_ratio", global_ratio),
            ("random_ratio", random_ratio),
        ):
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{nm} must be in [0, 1], got {val}")
        self.window_ratio = window_ratio
        self.global_ratio = global_ratio
        self.random_ratio = random_ratio
        self.block_size = block_size
        self.seed = seed

    def build_mask(self, q: np.ndarray, k: np.ndarray, *, layer: int = 0) -> BlockMask:
        h, s_q = q.shape[0], q.shape[1]
        s_k = k.shape[1]
        window = max(1, int(np.ceil(self.window_ratio * s_k)))
        n_global = int(np.ceil(self.global_ratio * s_k))
        mask = window_block_mask(h, s_q, s_k, self.block_size, window)
        mask = mask | global_block_mask(h, s_q, s_k, self.block_size, n_global)
        if self.random_ratio > 0.0:
            rng = np.random.default_rng((self.seed, layer, s_k))
            mask = mask | random_block_mask(
                h, s_q, s_k, self.block_size, self.random_ratio, rng
            )
        return mask
