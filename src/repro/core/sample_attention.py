"""SampleAttention: the paper's Algorithm 1, end to end.

``plan_sample_attention`` runs the two filtering stages; ``sample_attention``
additionally executes the plan on the window+stripe ("striped") kernel.  The
split mirrors the paper's implementation -- a fused sampling kernel
producing ``I_KV``, then a modified FlashAttention kernel consuming the
merged structured mask -- and lets benchmarks time the two phases separately
(Figure 5b's sampling-vs-sparse-compute breakdown).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..attention.fastpath import fast_block_sparse_attention
from ..attention.striped import StripedAttentionResult, striped_attention
from ..attention.utils import KernelWorkspace, validate_qkv
from ..audit import contracts
from ..config import DEFAULT_CONFIG, SampleAttentionConfig
from ..errors import ConfigError
from .filtering import select_kv_indices
from .plan import SparsePlan
from .sampling import sample_column_scores, sampled_row_indices

if TYPE_CHECKING:  # import would cycle through repro.backends at runtime
    from .profiler import StageProfiler

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
        Striped-kernel accounting (computed elements, achieved density).
    """

    output: np.ndarray
    plan: SparsePlan
    kernel: StripedAttentionResult


def plan_sample_attention(
    q: np.ndarray,
    k: np.ndarray,
    config: SampleAttentionConfig = DEFAULT_CONFIG,
    *,
    scale: float | None = None,
    selection_mode: str = "exact",
    reduction: str = "sum",
    detect_diagonals: bool = False,
    profiler: "StageProfiler | None" = None,
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
    reduction:
        Stage-1 column reduction (``"sum"`` is the paper's choice).
    detect_diagonals:
        Also run the Appendix-A.6 diagonal detector and attach the found
        distance bands to ``plan.extras["bands"]``; the striped executor
        covers them as extra bands parallel to the window.
    profiler:
        Optional :class:`~repro.core.profiler.StageProfiler`; stage 1 is
        timed as ``"sample"``, stage 2 as ``"filter"``.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)

    # Stage 1: query-guided attention sampling.
    with profiler.stage("sample") if profiler else nullcontext():
        rows = sampled_row_indices(
            s_q, config.r_row, from_end=config.sample_from_end
        )
        stats = sample_column_scores(q, k, rows, scale=scale, reduction=reduction)

    # Stage 2: score-based key-value filtering.
    with profiler.stage("filter") if profiler else nullcontext():
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
    selection_mode: str = "exact",
    reduction: str = "sum",
    execution: str = "striped",
    workspace: KernelWorkspace | None = None,
    profiler: "StageProfiler | None" = None,
) -> SampleAttentionResult:
    """Adaptive structured sparse attention (paper Algorithm 1).

    Drop-in replacement for dense causal attention during prefill: plans the
    head-specific window+stripe structure (unless a precomputed ``plan`` is
    supplied) and executes it.

    Parameters
    ----------
    execution:
        ``"striped"`` (default) gathers the selected KV columns, so cost is
        proportional to ``window + |I_KV|`` per head -- the paper's kernel.
        ``"block"`` rasterises the plan to a tile mask and runs
        :func:`~repro.attention.fast_block_sparse_attention` instead
        (ablation: how much a tile-aligned kernel loses to scattered
        stripes).
    workspace:
        Optional :class:`~repro.attention.KernelWorkspace` reused across
        calls by the block executor (O(1) allocations per call once
        warm).  Ignored by ``"striped"``.
    profiler:
        Optional :class:`~repro.core.profiler.StageProfiler`; planning is
        timed as ``"sample"``/``"filter"`` and execution as ``"attend"``.
        Block-execution statistics (``runs_coalesced``, ``head_groups``,
        ``gemm_calls``) are accumulated into ``profiler.counts``.

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
    if execution not in ("striped", "block"):
        raise ConfigError(f"unknown execution mode {execution!r}")
    if plan is None:
        if config.provider != "sample":
            # Route one-shot planning through the configured provider.
            # Long-lived callers (backends, the serving engine) hold their
            # own provider instance so stateful providers keep their
            # offline head profiles across calls.
            from .providers import plan_with_provider

            plan = plan_with_provider(
                q, k, config, scale=scale, profiler=profiler
            )
        else:
            plan = plan_sample_attention(
                q,
                k,
                config,
                scale=scale,
                selection_mode=selection_mode,
                reduction=reduction,
                profiler=profiler,
            )
    with profiler.stage("attend") if profiler else nullcontext():
        if execution == "striped":
            kernel = striped_attention(
                q,
                k,
                v,
                plan.window,
                plan.kv_indices,
                sink_tokens=plan.config.sink_tokens,
                dense_last_rows=plan.config.dense_last_rows,
                scale=scale,
                block_size=plan.config.block_size,
                bands=plan.extras.get("bands"),
            )
        else:
            block = fast_block_sparse_attention(
                q, k, v, plan.to_block_mask(), scale=scale, workspace=workspace
            )
            if profiler is not None:
                for key in ("runs_coalesced", "head_groups", "gemm_calls"):
                    profiler.count(key, block.stats[key])
            # Normalise the block result into the striped accounting shape.
            b2 = plan.config.block_size**2
            kernel = StripedAttentionResult(
                output=block.output,
                computed_elements=block.visited_blocks * b2,
                total_causal_elements=block.total_causal_blocks * b2,
            )
    return SampleAttentionResult(output=kernel.output, plan=plan, kernel=kernel)
