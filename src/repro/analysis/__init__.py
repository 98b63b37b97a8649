"""Sparsity analysis: CRA, oracle sparsity degree, pattern detection, and
text visualisation (paper Section 3 and Appendices A.3-A.5).

Public API::

    from repro.analysis import (
        cra, topk_stripe_cra,                    # Definition 2 / Fig 2e
        oracle_sd, model_sparsity_sweep,         # Definition 1 / Fig 2a-c
        layer_qkv, layer_probs, dense_probs,     # per-layer q/k/v, probs
        kv_retention_frequency,                  # Fig 11
        classify_head, window_mass, stripe_mass, # Fig 2d patterns
        ascii_heatmap, attention_heatmap,        # Fig 9/10 analogues
    )
"""

from .capture import dense_probs, layer_probs, layer_qkv
from .cra import cra, stripe_mask_from_indices, topk_stripe_cra
from .patterns import (
    HeadPattern,
    attention_entropy,
    classify_head,
    sink_mass,
    stripe_mass,
    window_mass,
)
from .sparsity import (
    SparsitySweep,
    kv_retention_frequency,
    model_sparsity_sweep,
    model_sparsity_sweep_multi,
    oracle_row_keep_counts,
    oracle_sd,
)
from .visualize import ascii_heatmap, attention_heatmap, pool_matrix

__all__ = [
    "layer_qkv",
    "layer_probs",
    "dense_probs",
    "cra",
    "stripe_mask_from_indices",
    "topk_stripe_cra",
    "HeadPattern",
    "classify_head",
    "window_mass",
    "stripe_mass",
    "sink_mass",
    "attention_entropy",
    "SparsitySweep",
    "oracle_sd",
    "oracle_row_keep_counts",
    "kv_retention_frequency",
    "model_sparsity_sweep",
    "model_sparsity_sweep_multi",
    "ascii_heatmap",
    "attention_heatmap",
    "pool_matrix",
]
