"""SampleAttention: the paper's Algorithm 1, end to end.

``plan_sample_attention`` runs the two filtering stages; ``sample_attention``
additionally executes the plan on the one kernel that executes plans -- the
stripe-granular packed executor (:mod:`repro.attention.packed`) the serving
engine dispatches, here as a batch of one.  The split mirrors the paper's
implementation -- a fused sampling kernel producing ``I_KV``, then a
modified FlashAttention kernel consuming the merged structured mask -- and
lets benchmarks time the two phases separately (Figure 5b's
sampling-vs-sparse-compute breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.packed import (
    PackedItem,
    PackedPrefillResult,
    packed_block_sparse_attention,
)
from ..attention.utils import validate_qkv
from ..audit import contracts
from ..config import DEFAULT_CONFIG, SampleAttentionConfig
from .filtering import select_kv_indices
from .plan import SparsePlan
from .sampling import sample_column_scores, sampled_row_indices

__all__ = ["SampleAttentionResult", "plan_sample_attention", "sample_attention"]


@dataclass(frozen=True)
class SampleAttentionResult:
    """Output of :func:`sample_attention`.

    Attributes
    ----------
    output:
        ``(H, S_q, d)`` attention output.
    plan:
        The :class:`~repro.core.plan.SparsePlan` that produced it.
    kernel:
        The packed kernel's per-item result: computed score elements and
        ``element_density`` (what the plan predicts).  The plan's tile
        view and its density are ``plan.to_block_mask()`` and its
        ``density()``.
    """

    output: np.ndarray
    plan: SparsePlan
    kernel: PackedPrefillResult


def plan_sample_attention(
    q: np.ndarray,
    k: np.ndarray,
    config: SampleAttentionConfig = DEFAULT_CONFIG,
    *,
    scale: float | None = None,
    selection_mode: str = "exact",
    detect_diagonals: bool = False,
) -> SparsePlan:
    """Run stages 1 and 2 and assemble the structured sparse plan.

    Parameters
    ----------
    q, k:
        ``(H, S_q, d)`` queries, ``(H_kv, S_k, d)`` keys (GQA-aware).
    config:
        Hyperparameters (``alpha``, ``r_row``, ``r_window``, kernel knobs).
    selection_mode:
        ``"exact"`` or ``"quantized"`` stage-2 top-k (see
        :mod:`repro.core.filtering`).
    detect_diagonals:
        Also run the Appendix-A.6 diagonal detector and attach the found
        distance bands to ``plan.extras["bands"]``; the kernel covers
        them as extra bands parallel to the window.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)

    # Stage 1: query-guided attention sampling.
    rows = sampled_row_indices(s_q, config.r_row)
    stats = sample_column_scores(q, k, rows, scale=scale)

    # Stage 2: score-based key-value filtering.
    selection = select_kv_indices(
        stats.column_scores,
        config.alpha,
        min_keep=config.min_keep,
        mode=selection_mode,
    )

    window = max(config.window_size(s_k), 1)
    extras: dict = {}
    if detect_diagonals:
        from .diagonal import detect_diagonal_bands

        extras["bands"] = detect_diagonal_bands(
            q, k, window=window, r_row=config.r_row, scale=scale
        )
    plan = SparsePlan(
        kv_indices=selection.kv_indices,
        window=window,
        kv_ratio=selection.kv_ratio,
        achieved_share=selection.achieved_share,
        sampled_rows=rows,
        config=config,
        s_q=s_q,
        s_k=s_k,
        extras=extras,
    )
    if contracts.enabled():
        contracts.check_plan(plan)
    return plan


def sample_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    config: SampleAttentionConfig = DEFAULT_CONFIG,
    *,
    scale: float | None = None,
    plan: SparsePlan | None = None,
) -> SampleAttentionResult:
    """Adaptive structured sparse attention (paper Algorithm 1).

    Drop-in replacement for dense causal attention during prefill: plans the
    head-specific window+stripe structure through ``config.provider``
    (unless a precomputed ``plan`` is supplied) and executes it -- window,
    ``extras["bands"]`` and gathered ``I_KV`` columns under one softmax, so
    cost is proportional to ``window + |I_KV|`` per head.  A supplied
    ``plan`` must have been built (or
    :meth:`~repro.core.plan.SparsePlan.extended`) for this call's ``(S_q,
    S_k)``; a stale geometry is a :class:`~repro.errors.MaskError`.
    Kernel scratch is the calling thread's own, warm from its earlier
    calls.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.config import SampleAttentionConfig
    >>> rng = np.random.default_rng(0)
    >>> q = rng.standard_normal((2, 256, 16), dtype=np.float32)
    >>> k = rng.standard_normal((2, 256, 16), dtype=np.float32)
    >>> v = rng.standard_normal((2, 256, 16), dtype=np.float32)
    >>> res = sample_attention(q, k, v, SampleAttentionConfig(alpha=0.95))
    >>> res.output.shape
    (2, 256, 16)
    """
    if plan is None:
        # One-shot planning through a fresh provider.  Long-lived callers
        # (backends, the serving engine) hold their own instance so
        # stateful providers keep their offline head profiles across calls.
        from .providers import make_provider  # cycles at import time

        plan = make_provider(config.provider).plan(q, k, config, scale=scale)
    kernel = packed_block_sparse_attention(
        [PackedItem.from_plan(q, k, v, plan, scale=scale)]
    ).results[0]
    return SampleAttentionResult(output=kernel.output, plan=plan, kernel=kernel)
