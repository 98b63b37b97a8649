"""Core contribution: the SampleAttention two-stage filtering pipeline.

Public API::

    from repro.core import (
        sample_attention, plan_sample_attention,   # Algorithm 1
        sampled_row_indices, sample_column_scores, # stage 1
        select_kv_indices,                         # stage 2
        SparsePlan,
    )
"""

from .diagonal import (
    DiagonalProfile,
    detect_diagonal_bands,
    diagonal_profile,
)
from .filtering import PAPER_PREFIX_RATIOS, FilterResult, select_kv_indices
from .plan import SparsePlan
from .profiler import ProfilingReport, profile_hyperparameters
from .providers import (
    HEAD_PATTERNS,
    MInferenceProvider,
    PlanProvider,
    SampleAttentionProvider,
    VerticalSlashProvider,
    make_provider,
)
from .sample_attention import (
    SampleAttentionResult,
    plan_sample_attention,
    sample_attention,
)
from .sampling import SampleStats, sample_column_scores, sampled_row_indices

__all__ = [
    "DiagonalProfile",
    "detect_diagonal_bands",
    "diagonal_profile",
    "ProfilingReport",
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
    "SampleAttentionResult",
    "plan_sample_attention",
    "sample_attention",
    "SampleStats",
    "sample_column_scores",
    "sampled_row_indices",
]
