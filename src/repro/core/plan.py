"""The :class:`SparsePlan` -- SampleAttention's per-call decision record.

A plan captures everything the two filtering stages decided for one
(layer, request) pair: the tuned window width, the per-head stripe indices
``I_KV``, and the accounting numbers (kept-KV ratios, predicted element
density, sampling cost) that the benchmarks and the performance model
consume.  Keeping it as an explicit object makes the pipeline inspectable:
``plan_sample_attention`` is pure analysis, the packed kernel
(:mod:`repro.attention.packed`) is pure compute -- and the only code that
executes a plan, in the library operator and the serving engine alike:
window, ``extras["bands"]``, stripes, sinks and dense last rows, exactly
the elements :meth:`SparsePlan.element_counts` predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..attention.masks import (
    BlockMask,
    _ascending_per_head,
    _flat_heads,
    plan_block_mask,
    striped_element_counts,
)
from ..attention.utils import total_causal_elements
from ..audit import contracts
from ..config import SampleAttentionConfig
from ..errors import ConfigError

__all__ = ["SparsePlan"]


@dataclass(frozen=True)
class SparsePlan:
    """Structured sparse attention plan for one attention call.

    Attributes
    ----------
    kv_indices:
        Per-head stripe key indices ``I_KV`` chosen by stage 2 (sorted).
    window:
        Local window width in tokens (``ceil(r_window * S_k)``, >= 1).
    kv_ratio:
        ``(H,)`` fraction of key columns kept as stripes per head.
    achieved_share:
        ``(H,)`` share of sampled column mass the stripes cover (>= alpha).
    sampled_rows:
        Query rows stage 1 sampled.
    config:
        The hyperparameters that produced this plan.
    s_q, s_k:
        Geometry of the attention call.
    planned_s_k:
        Key-prefix length the plan was *originally* computed at.  ``None``
        (the default) means this plan has not been re-geometried, so the
        planning length is ``s_k`` itself; :meth:`extended` carries the
        original value forward so serving-time validation can distinguish
        "legally clamped at a tiny planning prefix" from "structurally
        short".
    """

    kv_indices: list[np.ndarray]
    window: int
    kv_ratio: np.ndarray
    achieved_share: np.ndarray
    sampled_rows: np.ndarray
    config: SampleAttentionConfig
    s_q: int
    s_k: int
    extras: dict = field(default_factory=dict)
    planned_s_k: int | None = None

    @property
    def planning_s_k(self) -> int:
        """Key-prefix length stage 2 actually saw when selecting stripes."""
        return self.s_k if self.planned_s_k is None else self.planned_s_k

    @property
    def n_heads(self) -> int:
        return len(self.kv_indices)

    @property
    def mean_kv_ratio(self) -> float:
        """Mean stripe kept-ratio across heads (the paper's per-head
        ``KV_ratio`` averaged)."""
        return float(self.kv_ratio.mean()) if self.kv_ratio.size else 0.0

    def element_counts(self) -> np.ndarray:
        """Per-head score elements the packed kernel will compute for this
        plan, ``extras["bands"]`` included (the serving engine asserts the
        equality under contracts)."""
        return striped_element_counts(
            self.s_q,
            self.s_k,
            self.window,
            self.kv_indices,
            sink_tokens=self.config.sink_tokens,
            dense_last_rows=self.config.dense_last_rows,
            bands=self.extras.get("bands"),
        )

    def element_density(self) -> float:
        """Predicted fraction of dense-causal score elements computed.

        Defined for right-aligned prefill geometry (``s_q <= s_k``); a plan
        claiming more queries than keys has no causal element count to
        normalise by, so that is a :class:`~repro.errors.ConfigError`
        rather than a garbage (negative) density.
        """
        if self.s_q > self.s_k:
            raise ConfigError(
                f"element_density requires s_q <= s_k, got s_q={self.s_q} "
                f"> s_k={self.s_k}"
            )
        total = total_causal_elements(self.s_q, self.s_k)
        if total == 0:
            return 0.0
        return float(self.element_counts().mean() / total)

    def extended(self, *, s_q: int, s_k: int) -> "SparsePlan":
        """Staleness-bounded reuse: re-geometry this plan for a later chunk.

        During chunked prefill the KV prefix only grows, so a plan computed
        at an earlier chunk stays *structurally* valid: the stripe indices
        ``I_KV`` still point at the same keys, and the local window slides
        with the queries by construction.  This returns a plan for the new
        call geometry -- same stripes and sampled rows, window re-derived
        from ``config.r_window`` at the new key length, kept-ratios
        re-normalised -- which is what the serving plan cache hands out
        between replans.  When the geometry is unchanged, the plan itself is
        returned (cache hits on an unchanged prefix are bitwise-exact).

        Diagonal bands in ``extras["bands"]`` are *re-clipped* to the
        planning-time distance range ``[0, planning_s_k)``: the detector
        only ever observed distances below the planned prefix length, so a
        band reaching past it carries no evidence and must not start
        covering elements just because the prefix grew.
        """
        if s_q < 0 or s_k < self.s_k:
            raise ConfigError(
                f"extended: geometry must not shrink (s_q={s_q}, s_k={s_k} "
                f"vs planned s_k={self.s_k})"
            )
        if s_q == self.s_q and s_k == self.s_k:
            return self
        kv_ratio = np.asarray(
            [ix.size / max(s_k, 1) for ix in self.kv_indices], dtype=np.float64
        )
        extras = dict(self.extras)
        if extras.get("bands"):
            extras["bands"] = [
                (max(int(lo), 0), min(int(hi), self.planning_s_k))
                for lo, hi in extras["bands"]
                if max(int(lo), 0) < min(int(hi), self.planning_s_k)
            ]
        return SparsePlan(
            kv_indices=self.kv_indices,
            window=max(self.config.window_size(s_k), 1),
            kv_ratio=kv_ratio,
            achieved_share=self.achieved_share,
            sampled_rows=self.sampled_rows,
            config=self.config,
            s_q=s_q,
            s_k=s_k,
            extras=extras,
            planned_s_k=self.planning_s_k,
        )

    def validate(self, *, s_k: int | None = None) -> bool:
        """Cheap structural validity check before serving-time execution.

        Returns ``False`` when the plan cannot be executed safely against a
        key prefix of length ``s_k`` (defaults to the planned length):
        window out of range, stripe indices out of bounds / unsorted /
        duplicated, fewer stripes than ``config.min_keep``, per-head
        accounting arrays whose length disagrees with the head count, or
        non-finite accounting.  The serving engine degrades such calls to
        dense attention instead of crashing mid-request.

        Note that validation is *structural*: a plan whose
        ``achieved_share`` honestly reports sub-``alpha`` coverage is still
        executable -- catching that is the serving engine's runtime CRA
        guard, not ``validate``.
        """
        sk = self.s_k if s_k is None else int(s_k)
        if sk < 1 or self.window < 1 or self.window > sk:
            return False
        if not self.kv_indices:
            return False
        # Stage 2 clamps min_keep to the *planning-time* prefix length: a
        # plan legally built at a tiny prefix keeps its clamped stripe set
        # when the prefix later outgrows min_keep, so the floor must follow
        # the planned s_k, not the extended one (else every early-chunk
        # plan is spuriously invalidated on cache reuse).
        floor = min(self.config.min_keep, self.planning_s_k, sk)
        for ix in self.kv_indices:
            arr = np.asarray(ix)
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                return False
            if arr.size < floor:
                return False
        # Range and strict order of every head, from one pass over the
        # concatenated indices.
        heads, flat = _flat_heads(self.kv_indices)
        if flat.size and (flat.min() < 0 or flat.max() >= sk):
            return False
        if not _ascending_per_head(heads, flat):
            return False
        if self.kv_ratio.shape != (self.n_heads,):
            return False
        if not (np.isfinite(self.kv_ratio).all() and (self.kv_ratio >= 0).all()):
            return False
        share = np.asarray(self.achieved_share)
        if share.shape != (self.n_heads,) or not np.isfinite(share).all():
            return False
        return True

    def sampling_fraction(self) -> float:
        """Stage-1 cost as a fraction of a full score-matrix pass
        (``l / S_q``); feeds the sampling-overhead breakdown of Figure 5b."""
        if self.s_q == 0:
            return 0.0
        return self.sampled_rows.size / self.s_q

    def to_block_mask(self, block_size: int | None = None) -> BlockMask:
        """Tile-granular view of the plan (window ∪ stripes ∪ sinks ∪
        bottom area; ``extras["bands"]`` are left out).

        This is the plan's **accounting view**, not what gets executed:
        the packed kernel attends at stripe granularity (``window``, bands
        and ``kv_indices`` themselves, see :mod:`repro.attention.packed`)
        and carries this mask only to report the tile footprint a
        block-granular kernel would visit -- the roofline billing,
        ``kernel_packed_tiles_visited`` and the merged-mask contract are
        built on it.  Tile-granular execution of a plan is
        ``fast_block_sparse_attention(q, k, v, plan.to_block_mask())``
        (the design ablation and the audit's ``pipeline`` area do that).
        """
        mask = plan_block_mask(
            self.s_q,
            self.s_k,
            block_size or self.config.block_size,
            self.window,
            self.kv_indices,
            sink_tokens=self.config.sink_tokens,
            dense_last_rows=self.config.dense_last_rows,
        )
        if contracts.enabled():
            contracts.check_merged_mask(self, mask)
        return mask

    def summary(self) -> dict:
        """Plain-dict digest for logs and experiment tables."""
        return {
            "s_q": self.s_q,
            "s_k": self.s_k,
            "window": self.window,
            "element_density": round(self.element_density(), 4),
            "mean_kv_ratio": round(self.mean_kv_ratio, 4),
            "min_kv_ratio": round(float(self.kv_ratio.min()), 4)
            if self.kv_ratio.size
            else 0.0,
            "max_kv_ratio": round(float(self.kv_ratio.max()), 4)
            if self.kv_ratio.size
            else 0.0,
            "n_sampled_rows": int(self.sampled_rows.size),
            "alpha": self.config.alpha,
        }
