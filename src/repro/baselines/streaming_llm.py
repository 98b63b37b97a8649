"""StreamingLLM baseline (Xiao et al., 2023) applied to prefill.

StreamingLLM keeps only the first few "attention sink" tokens plus a recent
window.  It was designed for infinite *decoding*; the paper evaluates what
happens when the same pattern is used to sparsify prefill attention -- any
information outside sink+window is simply unreachable, which is the failure
mode Table 2 and Figure 4 document.
"""

from __future__ import annotations

import numpy as np

from ..attention.masks import BlockMask, sink_block_mask, window_block_mask
from ..backends import MaskedAttentionBackend
from ..errors import ConfigError

__all__ = ["StreamingLLMBackend"]


class StreamingLLMBackend(MaskedAttentionBackend):
    """Attention sinks + sliding window.

    Parameters
    ----------
    sink_tokens:
        Leading positions always kept (paper setting: 4).
    window_ratio:
        Recent-window width as a fraction of sequence length (paper: 0.08,
        matched to SampleAttention for a fair comparison).
    """

    name = "streaming_llm"

    def __init__(
        self,
        *,
        sink_tokens: int = 4,
        window_ratio: float = 0.08,
        block_size: int = 64,
    ) -> None:
        super().__init__()
        if sink_tokens < 0:
            raise ConfigError(f"sink_tokens must be >= 0, got {sink_tokens}")
        if not 0.0 <= window_ratio <= 1.0:
            raise ConfigError(f"window_ratio must be in [0, 1], got {window_ratio}")
        self.sink_tokens = sink_tokens
        self.window_ratio = window_ratio
        self.block_size = block_size

    def build_mask(self, q: np.ndarray, k: np.ndarray, *, layer: int = 0) -> BlockMask:
        h, s_q = q.shape[0], q.shape[1]
        s_k = k.shape[1]
        window = max(1, int(np.ceil(self.window_ratio * s_k)))
        mask = window_block_mask(h, s_q, s_k, self.block_size, window)
        if self.sink_tokens > 0:
            mask = mask | sink_block_mask(h, s_q, s_k, self.block_size, self.sink_tokens)
        return mask
