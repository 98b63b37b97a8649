"""Attention substrate: dense reference, the packed plan executor (dense
causal attention included), block-sparse kernels, and block-mask
construction.

Public API::

    from repro.attention import (
        dense_attention, attention_probs,   # gold-standard quadratic kernel
        flash_attention,                    # dense causal, on the packed kernel
        block_sparse_attention,             # masked tiled kernel (reference)
        fast_block_sparse_attention,        # coalesced/grouped fast path
        packed_block_sparse_attention,      # the SparsePlan executor
        BlockMask, causal_block_mask, ...   # block-level mask algebra
    )
"""

from .blocksparse import BlockSparseResult, block_sparse_attention
from .dense import DenseAttentionResult, attention_probs, dense_attention
from .fastpath import (
    coalesce_runs,
    fast_block_sparse_attention,
    head_pattern_groups,
)
from .flash import flash_attention
from .packed import (
    PackedAttentionResult,
    PackedDecodeItem,
    PackedDecodeResult,
    PackedItem,
    PackedPrefillResult,
    packed_block_sparse_attention,
    packed_decode_attention,
)
from .masks import (
    BlockMask,
    causal_block_mask,
    global_block_mask,
    num_blocks,
    random_block_mask,
    sink_block_mask,
    stripe_block_mask,
    striped_element_counts,
    window_block_mask,
)
from .utils import (
    causal_mask,
    decode_row_attention,
    expand_kv,
    softmax,
)

__all__ = [
    "DenseAttentionResult",
    "dense_attention",
    "attention_probs",
    "flash_attention",
    "BlockSparseResult",
    "block_sparse_attention",
    "coalesce_runs",
    "fast_block_sparse_attention",
    "head_pattern_groups",
    "PackedItem",
    "PackedPrefillResult",
    "PackedAttentionResult",
    "PackedDecodeItem",
    "PackedDecodeResult",
    "packed_block_sparse_attention",
    "packed_decode_attention",
    "striped_element_counts",
    "BlockMask",
    "num_blocks",
    "causal_block_mask",
    "window_block_mask",
    "stripe_block_mask",
    "sink_block_mask",
    "global_block_mask",
    "random_block_mask",
    "causal_mask",
    "decode_row_attention",
    "expand_kv",
    "softmax",
]
