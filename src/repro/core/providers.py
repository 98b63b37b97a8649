"""Plan providers: pluggable sparse-pattern planners behind one interface.

SampleAttention's window+stripe structure is one point in the sparse-pattern
space the paper positions itself against.  This module makes the *planner*
pluggable while everything downstream stays shared: every provider emits an
ordinary :class:`~repro.core.SparsePlan` (window, per-head ``kv_indices``,
optional ``extras["bands"]`` slashes), so the one plan executor
(:mod:`repro.attention.packed`, which executes verticals *and* slashes, in
the library operator and the serving engine alike),
``PlanCache.get``/``SparsePlan.extended`` serving reuse, the runtime CRA
guard, and the audit fuzzer's masked-dense oracle all apply unchanged.

Three providers ship (:data:`~repro.config.PLAN_PROVIDER_NAMES`):

* ``"sample"`` -- :class:`SampleAttentionProvider`, the paper's two-stage
  planner (:func:`~repro.core.plan_sample_attention`) unchanged.
* ``"minference"`` -- :class:`MInferenceProvider`, MInference-1.0-style
  per-head *static* pattern classes (A-shape / vertical-slash / block)
  found by a one-time head profile, with only the dynamic stripe/slash
  offsets re-indexed at serving time.
* ``"vertical_slash"`` -- :class:`VerticalSlashProvider`, an
  AnchorAttention/VSPrefill-style vertical+slash planner with lightweight
  difference-aware vertical indexing.

Every provider's ``achieved_share`` keeps the stage-2 semantic -- the share
of sampled column mass its ``kv_indices`` cover -- and every provider tops
its selection up to the config's ``alpha`` (except genuinely dead heads,
which report exactly ``0.0``), so the serving engine's CRA guard and the
runtime contracts treat provider plans exactly like SampleAttention plans.
The one deliberate exception is the A-shape class, whose coverage lives in
the window band + sinks rather than in stripes; it reports the profiled
band+sink share (see :class:`MInferenceProvider`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np

from ..attention.masks import clip_bands
from ..attention.utils import validate_qkv
from ..audit import contracts
from ..config import DEFAULT_CONFIG, PLAN_PROVIDER_NAMES, SampleAttentionConfig
from ..errors import ConfigError
from .diagonal import detect_diagonal_bands, diagonal_profile
from .plan import SparsePlan
from .sample_attention import plan_sample_attention
from .sampling import sample_column_scores, sampled_row_indices

__all__ = [
    "HEAD_PATTERNS",
    "PlanProvider",
    "SampleAttentionProvider",
    "MInferenceProvider",
    "VerticalSlashProvider",
    "make_provider",
]

#: MInference 1.0's per-head static pattern classes.
HEAD_PATTERNS = ("a_shape", "vertical_slash", "block")

#: Float-equality slack when topping a selection up to ``alpha`` (matches
#: stage 2's searchsorted guard).
_ALPHA_EPS = 1e-9

#: MInference's ``block`` class: block-aggregated selection may use at most
#: this many times the columns a scattered top-k needs.
BLOCK_SLACK = 1.5

#: Vertical-slash difference-aware cut: the largest drop is searched in the
#: top ``MAX_CUT_RATIO`` share of columns, and a slash band needs at least
#: ``SLASH_MIN_MASS`` of a typical row's attention.
MAX_CUT_RATIO = 0.5
SLASH_MIN_MASS = 0.05


@runtime_checkable
class PlanProvider(Protocol):
    """A pattern planner: ``(q, k, config) -> SparsePlan``.

    Implementations may be stateful (offline head profiles memoised across
    calls), but ``plan`` must be deterministic given the call sequence --
    the serving engine creates a fresh provider per run so same-seed
    replays stay bitwise identical.
    """

    name: str

    def plan(
        self,
        q: np.ndarray,
        k: np.ndarray,
        config: SampleAttentionConfig = DEFAULT_CONFIG,
        *,
        scale: float | None = None,
    ) -> SparsePlan:
        """Produce a :class:`SparsePlan` for one attention call."""
        ...


# --------------------------------------------------------------------------
# Shared selection helpers.
# --------------------------------------------------------------------------


def _stage1_scores(
    q: np.ndarray,
    k: np.ndarray,
    config: SampleAttentionConfig,
    *,
    scale: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 sampled column mass shared by all providers: ``(rows,
    column_scores)`` with scores upcast to float64 for stable accounting."""
    s_q = q.shape[1]
    rows = sampled_row_indices(s_q, config.r_row)
    stats = sample_column_scores(q, k, rows, scale=scale)
    return rows, stats.column_scores.astype(np.float64)


def _top_up_to_alpha(
    scores_h: np.ndarray,
    base: np.ndarray,
    alpha: float,
    min_keep: int,
) -> tuple[np.ndarray, float]:
    """Grow ``base`` (sorted column indices) with top-mass columns until the
    covered share of ``scores_h`` reaches ``alpha`` and the size reaches
    ``min_keep`` (clamped to ``s_k``); returns ``(sorted indices, share)``.

    A dead head (zero total mass) keeps ``max(min_keep, 1)`` leading
    columns and honestly reports share ``0.0`` -- the same convention as
    stage 2, which the contracts and the CRA guard already understand.
    """
    s_k = int(scores_h.shape[0])
    floor = int(np.clip(min_keep, 0, s_k))
    total = float(scores_h.sum())
    if total <= 0.0:
        return np.arange(min(max(floor, 1), s_k), dtype=np.int64), 0.0

    keep = np.zeros(s_k, dtype=bool)
    if base.size:
        keep[base] = True
    covered = float(scores_h[keep].sum())
    if covered / total < alpha - _ALPHA_EPS or int(keep.sum()) < floor:
        rest = np.nonzero(~keep)[0]
        order = rest[np.argsort(-scores_h[rest], kind="stable")]
        cum = covered + np.cumsum(scores_h[order])
        # Smallest extension reaching alpha; may still be padded by floor.
        j = int(np.searchsorted(cum / total, alpha - _ALPHA_EPS)) + 1
        j = max(j, floor - int(keep.sum()))
        j = min(j, order.size)
        keep[order[:j]] = True
        covered = float(scores_h[keep].sum())
    idx = np.nonzero(keep)[0].astype(np.int64)
    return idx, min(covered / total, 1.0)


def _assemble(
    provider: str,
    config: SampleAttentionConfig,
    s_q: int,
    s_k: int,
    rows: np.ndarray,
    kv_indices: list[np.ndarray],
    achieved: np.ndarray,
    extras: dict,
) -> SparsePlan:
    """Common :class:`SparsePlan` assembly + contract hook."""
    extras = {"provider": provider, **extras}
    plan = SparsePlan(
        kv_indices=kv_indices,
        window=max(config.window_size(s_k), 1),
        kv_ratio=np.asarray(
            [ix.size / max(s_k, 1) for ix in kv_indices], dtype=np.float64
        ),
        achieved_share=np.asarray(achieved, dtype=np.float64),
        sampled_rows=rows,
        config=config,
        s_q=s_q,
        s_k=s_k,
        extras=extras,
    )
    if contracts.enabled():
        contracts.check_plan(plan)
    return plan


# --------------------------------------------------------------------------
# Provider 1: the paper's two-stage planner.
# --------------------------------------------------------------------------


class SampleAttentionProvider:
    """Default provider: the paper's Algorithm-1 two-stage planner.

    Thin stateless wrapper over :func:`~repro.core.plan_sample_attention`
    at its defaults (exact stage-2 top-k, summed stage-1 columns, no
    diagonal detection); the paper ablations call the planner directly.
    """

    name = "sample"

    def plan(
        self,
        q: np.ndarray,
        k: np.ndarray,
        config: SampleAttentionConfig = DEFAULT_CONFIG,
        *,
        scale: float | None = None,
    ) -> SparsePlan:
        plan = plan_sample_attention(q, k, config, scale=scale)
        return replace(plan, extras={**plan.extras, "provider": self.name})


# --------------------------------------------------------------------------
# Provider 2: MInference-style static per-head patterns.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _HeadGroupProfile:
    """One offline profiling result for a head group (head-count key)."""

    patterns: tuple[str, ...]
    kv_budget_ratio: tuple[float, ...]
    a_scores: tuple[float, ...]
    bands: tuple[tuple[int, int], ...]


class MInferenceProvider:
    """MInference-1.0-style planner: static per-head patterns, dynamic
    offsets.

    The first ``plan`` call for a head group runs the (comparatively
    expensive) *offline profile*: each head's sampled attention is
    classified into one of :data:`HEAD_PATTERNS` --

    * ``a_shape`` when the local window band plus the attention sinks
      already hold an ``alpha`` share of a typical row's mass (measured on
      the relative-distance profile, so genuinely local heads classify
      correctly on ragged geometries);
    * ``block`` when block-aggregated column selection reaches ``alpha``
      with at most :data:`BLOCK_SLACK` times the columns a scattered top-k
      needs (the mass is tile-clustered);
    * ``vertical_slash`` otherwise (scattered verticals + profiled slash
      bands).

    Serving-time calls reuse the stored classes and only *re-index* the
    dynamic offsets: vertical heads re-rank columns under the stored
    budget, block heads re-pick blocks, A-shape heads re-derive the
    static sink+window footprint at the current prefix length, and the
    profiled slash bands are re-clipped to the current geometry.  Every
    class except ``a_shape`` is then topped up to ``alpha`` against the
    *current* sampled mass, so ``achieved_share`` stays an honest
    serving-time coverage number; ``a_shape`` heads report their profiled
    band+sink share (their coverage lives in the window, not in stripes).
    """

    name = "minference"

    def __init__(self) -> None:
        self._profiles: dict[tuple, _HeadGroupProfile] = {}

    # -- offline profile ---------------------------------------------------
    def _profile(
        self,
        q: np.ndarray,
        k: np.ndarray,
        config: SampleAttentionConfig,
        scores: np.ndarray,
        window: int,
        *,
        scale: float | None,
    ) -> _HeadGroupProfile:
        h, s_k = scores.shape
        dia = diagonal_profile(q, k, r_row=config.r_row, scale=scale)
        band_mass = dia.mass[:, : min(window, dia.mass.shape[1])].sum(axis=1)
        patterns: list[str] = []
        ratios: list[float] = []
        a_scores: list[float] = []
        n_sink = min(config.sink_tokens, s_k)
        block = max(int(config.block_size), 1)
        for hh in range(h):
            total = float(scores[hh].sum())
            sink_share = (
                float(scores[hh, :n_sink].sum()) / total if total > 0 else 0.0
            )
            a_score = min(float(band_mass[hh]) + sink_share, 1.0)
            a_scores.append(a_score)
            order = np.argsort(-scores[hh], kind="stable")
            cum = np.cumsum(scores[hh][order])
            share = cum / total if total > 0 else np.ones_like(cum)
            n_exact = int(
                np.searchsorted(share, config.alpha - _ALPHA_EPS) + 1
            )
            n_exact = min(n_exact, s_k)
            if a_score >= config.alpha:
                patterns.append("a_shape")
                ratios.append(n_exact / max(s_k, 1))
                continue
            # Block-aggregated alternative at the same alpha target.
            n_blocks = -(-s_k // block)
            bmass = np.add.reduceat(
                scores[hh], np.arange(0, s_k, block)
            )
            border = np.argsort(-bmass, kind="stable")
            bcum = np.cumsum(bmass[border])
            bshare = bcum / total if total > 0 else np.ones_like(bcum)
            jb = int(
                np.searchsorted(bshare, config.alpha - _ALPHA_EPS) + 1
            )
            jb = min(jb, n_blocks)
            # Columns the chosen blocks actually contain (tail block ragged).
            n_block_cols = int(
                sum(
                    min(s_k - int(b) * block, block)
                    for b in border[:jb]
                )
            )
            if n_block_cols <= BLOCK_SLACK * max(n_exact, 1):
                patterns.append("block")
            else:
                patterns.append("vertical_slash")
            ratios.append(n_exact / max(s_k, 1))
        bands: tuple[tuple[int, int], ...] = ()
        if "vertical_slash" in patterns:
            bands = tuple(
                detect_diagonal_bands(
                    q, k, window=window, r_row=config.r_row, scale=scale
                )
            )
        return _HeadGroupProfile(
            patterns=tuple(patterns),
            kv_budget_ratio=tuple(ratios),
            a_scores=tuple(a_scores),
            bands=bands,
        )

    # -- serving-time planning --------------------------------------------
    def plan(
        self,
        q: np.ndarray,
        k: np.ndarray,
        config: SampleAttentionConfig = DEFAULT_CONFIG,
        *,
        scale: float | None = None,
    ) -> SparsePlan:
        h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)
        rows, scores = _stage1_scores(q, k, config, scale=scale)
        window = max(config.window_size(s_k), 1)
        key = (h, config.alpha, config.sink_tokens, config.block_size)
        prof = self._profiles.get(key)
        if prof is None:
            prof = self._profile(q, k, config, scores, window, scale=scale)
            self._profiles[key] = prof

        n_sink = min(config.sink_tokens, s_k)
        sinks = np.arange(n_sink, dtype=np.int64)
        block = max(int(config.block_size), 1)
        kv_indices: list[np.ndarray] = []
        achieved = np.empty(h, dtype=np.float64)
        for hh in range(h):
            pattern = prof.patterns[hh]
            total = float(scores[hh].sum())
            if pattern == "a_shape":
                # Static footprint re-indexed to the current prefix:
                # sinks + the trailing window columns (the newest keys,
                # which the final queries' windows cover).
                tail = np.arange(max(s_k - window, 0), s_k, dtype=np.int64)
                base = np.union1d(sinks, tail).astype(np.int64)
                # Pad with top-mass columns if min_keep asks for more
                # stripes than the static footprint holds (alpha target
                # 0: the footprint itself is the coverage claim).
                idx, _ = _top_up_to_alpha(scores[hh], base, 0.0, config.min_keep)
                kv_indices.append(idx if idx.size else base)
                # Coverage lives in the window band, not the stripes:
                # report the profiled band+sink share (static-pattern
                # trust is the MInference tradeoff), or honest zero on
                # a dead head.
                achieved[hh] = prof.a_scores[hh] if total > 0 else 0.0
                continue
            if pattern == "block":
                bmass = np.add.reduceat(scores[hh], np.arange(0, s_k, block))
                border = np.argsort(-bmass, kind="stable")
                bcum = np.cumsum(bmass[border])
                bshare = bcum / total if total > 0 else np.ones_like(bcum)
                jb = int(np.searchsorted(bshare, config.alpha - _ALPHA_EPS) + 1)
                jb = min(jb, border.size)
                cols = [
                    np.arange(
                        int(b) * block,
                        min((int(b) + 1) * block, s_k),
                        dtype=np.int64,
                    )
                    for b in border[:jb]
                ]
                base = (
                    np.sort(np.concatenate(cols))
                    if cols
                    else np.empty(0, dtype=np.int64)
                )
            else:  # vertical_slash: re-rank under the stored budget
                kk = int(np.clip(np.ceil(prof.kv_budget_ratio[hh] * s_k), 1, s_k))
                order = np.argsort(-scores[hh], kind="stable")
                base = np.sort(order[:kk]).astype(np.int64)
            idx, share = _top_up_to_alpha(
                scores[hh], base, config.alpha, config.min_keep
            )
            kv_indices.append(idx)
            achieved[hh] = share

        extras: dict = {"head_patterns": prof.patterns}
        bands = clip_bands(prof.bands, s_k)
        if bands:
            extras["bands"] = bands
        return _assemble(
            self.name, config, s_q, s_k, rows, kv_indices, achieved, extras
        )


# --------------------------------------------------------------------------
# Provider 3: vertical-slash with difference-aware indexing.
# --------------------------------------------------------------------------


class VerticalSlashProvider:
    """AnchorAttention/VSPrefill-style vertical+slash planner.

    Verticals are picked by *difference-aware* indexing instead of a fixed
    top-k: the sorted column-mass curve is cut at its largest relative
    drop (the anchor/background boundary AnchorAttention exploits), which
    adapts the stripe count to how peaked each head's distribution
    actually is.  Slash diagonals are detected once per call with the
    lightweight distance-profile detector and attached as
    ``extras["bands"]`` -- the packed kernel executes them as bands
    parallel to the window, in the library operator and the serving engine
    alike.  The vertical set is then topped up until its column-mass share
    clears ``alpha``, keeping ``achieved_share`` comparable with the
    default provider (bands are bonus coverage, deliberately *not* counted
    toward alpha: the share is a statement about sampled *column* mass,
    and the tile-granular accounting view ``to_block_mask`` leaves bands
    out).
    """

    name = "vertical_slash"

    def plan(
        self,
        q: np.ndarray,
        k: np.ndarray,
        config: SampleAttentionConfig = DEFAULT_CONFIG,
        *,
        scale: float | None = None,
    ) -> SparsePlan:
        h, h_kv, s_q, s_k, d = validate_qkv(q, k, k)
        rows, scores = _stage1_scores(q, k, config, scale=scale)
        window = max(config.window_size(s_k), 1)

        bands = detect_diagonal_bands(
            q,
            k,
            window=window,
            r_row=config.r_row,
            scale=scale,
            min_mass=SLASH_MIN_MASS,
        )
        kv_indices: list[np.ndarray] = []
        achieved = np.empty(h, dtype=np.float64)
        cut_cap = max(1, int(np.ceil(MAX_CUT_RATIO * s_k)))
        for hh in range(h):
            order = np.argsort(-scores[hh], kind="stable")
            sorted_mass = scores[hh][order]
            # Difference-aware cut: the largest drop in the sorted
            # mass curve within the first ``cut_cap`` columns marks
            # the anchor set.
            span = sorted_mass[: cut_cap + 1]
            if span.size > 1:
                drops = span[:-1] - span[1:]
                cut = int(np.argmax(drops)) + 1
            else:
                cut = 1
            base = np.sort(order[:cut]).astype(np.int64)
            idx, share = _top_up_to_alpha(
                scores[hh], base, config.alpha, config.min_keep
            )
            kv_indices.append(idx)
            achieved[hh] = share

        extras: dict = {}
        if bands:
            extras["bands"] = clip_bands(bands, s_k)
        return _assemble(
            self.name, config, s_q, s_k, rows, kv_indices, achieved, extras
        )


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

_PROVIDER_TYPES = {
    "sample": SampleAttentionProvider,
    "minference": MInferenceProvider,
    "vertical_slash": VerticalSlashProvider,
}
assert set(_PROVIDER_TYPES) == set(PLAN_PROVIDER_NAMES)


def make_provider(name: str) -> PlanProvider:
    """Instantiate a fresh provider by registry name.

    Providers may be stateful (MInference memoises its offline head
    profiles), so callers that need reproducible same-seed replays --
    the serving engine, the audit fuzzer -- create one instance per run
    rather than sharing a module-level singleton.
    """
    cls = _PROVIDER_TYPES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown plan provider {name!r}; expected one of "
            f"{PLAN_PROVIDER_NAMES}"
        )
    return cls()

