"""Core contribution: the SampleAttention two-stage filtering pipeline.

Public API::

    from repro.core import (
        sample_attention, plan_sample_attention,   # Algorithm 1
        sampled_row_indices, sample_column_scores, # stage 1
        select_kv_indices,                         # stage 2
        SparsePlan,
    )
"""

from .autotune import AutotunedSampleAttentionBackend
from .diagonal import (
    DiagonalProfile,
    detect_diagonal_bands,
    diagonal_profile,
)
from .filtering import PAPER_PREFIX_RATIOS, FilterResult, select_kv_indices
from .plan import SparsePlan
from .profiler import ProfilingReport, StageProfiler, profile_hyperparameters
from .providers import (
    HEAD_PATTERNS,
    MInferenceProvider,
    PlanProvider,
    SampleAttentionProvider,
    VerticalSlashProvider,
    make_provider,
    plan_with_provider,
)
from .sample_attention import (
    SampleAttentionResult,
    plan_sample_attention,
    sample_attention,
)
from .sampling import SampleStats, sample_column_scores, sampled_row_indices
from .sparse_decode import compress_caches_with_plans, plan_keep_indices

__all__ = [
    "AutotunedSampleAttentionBackend",
    "DiagonalProfile",
    "detect_diagonal_bands",
    "diagonal_profile",
    "ProfilingReport",
    "StageProfiler",
    "profile_hyperparameters",
    "PAPER_PREFIX_RATIOS",
    "FilterResult",
    "select_kv_indices",
    "SparsePlan",
    "HEAD_PATTERNS",
    "PlanProvider",
    "SampleAttentionProvider",
    "MInferenceProvider",
    "VerticalSlashProvider",
    "make_provider",
    "plan_with_provider",
    "SampleAttentionResult",
    "plan_sample_attention",
    "sample_attention",
    "SampleStats",
    "sample_column_scores",
    "sampled_row_indices",
    "compress_caches_with_plans",
    "plan_keep_indices",
]
