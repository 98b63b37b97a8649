"""Transformer substrate: RoPE, GQA decoder layers, KV caches, generation,
and the constructed (hand-weighted) evaluation backbones.

Public API::

    from repro.model import (
        ModelConfig, Transformer, build_model,   # backbones
        LayerKVCache,                            # decode cache
        rope_cos_sin, apply_rope,                # positional encoding
    )
"""

from .circuits import (
    EmbeddingSpec,
    HeadSpec,
    KVGroupSpec,
    KVProgram,
    LayerSpec,
    QueryProgram,
    RotaryTerm,
    compile_model,
)
from .config import ModelConfig, ResidualLayout
from .kv_cache import LayerKVCache
from .layers import AttentionLayer, gated_mlp, rms_norm
from .presets import MODEL_NAMES, build_model
from .rope import apply_rope, rope_cos_sin, rope_frequencies
from .transformer import GenerationResult, Transformer
from .weights import LayerWeights, ModelWeights, random_weights

__all__ = [
    "ModelConfig",
    "ResidualLayout",
    "Transformer",
    "GenerationResult",
    "LayerKVCache",
    "AttentionLayer",
    "rms_norm",
    "gated_mlp",
    "MODEL_NAMES",
    "build_model",
    "ModelWeights",
    "LayerWeights",
    "random_weights",
    "compile_model",
    "EmbeddingSpec",
    "HeadSpec",
    "KVGroupSpec",
    "KVProgram",
    "LayerSpec",
    "QueryProgram",
    "RotaryTerm",
    "rope_cos_sin",
    "apply_rope",
    "rope_frequencies",
]
