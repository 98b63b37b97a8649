"""Geometry fuzzer: adversarial attention-call shapes vs the dense oracle.

Every way this package can compute attention -- dense, flash (dense
causal attention on the plan executor), the two block-sparse kernels (the
tile-at-a-time oracle and the coalesced fast path), the full Algorithm-1
pipeline, the serving chain's ``plan -> PlanCache.get/extended ->
execute`` reuse path, the paged-KV gather
feeding all of them, and the one plan executor -- the packed
cross-request dispatch batching ragged items into one call, diagonal bands
included -- must agree with the masked-dense gold standard on *every*
geometry, not just the hand-picked shapes unit tests use.  This module
samples the shapes that historically break index-built sparse kernels:

* ragged tails (``S % block_size != 0``) and single-token sequences,
* chunked-prefill offsets (``s_q < s_k``, right-aligned queries),
* GQA ratios, including head counts that are not multiples of the
  fast path's pattern-group sizes,
* empty and full per-head stripe sets,
* ``window`` at its extremes (``0`` -- must be rejected -- ``1``, ``s_k``),
* extra diagonal bands overlapping the window, adjacent to it, crossing
  stripe columns and reaching past the prefix,
* ``alpha``/``r_row``/``min_keep`` at their domain edges.

A failing case is shrunk greedily to a minimal counterexample so the
report names the smallest geometry that still diverges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..attention.blocksparse import block_sparse_attention
from ..attention.dense import dense_attention
from ..attention.fastpath import fast_block_sparse_attention
from ..attention.flash import flash_attention
from ..attention.masks import (
    BlockMask,
    dense_rows_block_mask,
    sink_block_mask,
    stripe_block_mask,
    window_block_mask,
)
from ..attention.utils import KernelWorkspace
from ..config import SampleAttentionConfig
from ..core.plan import SparsePlan
from ..core.sample_attention import plan_sample_attention, sample_attention
from ..errors import ConfigError, MaskError, ReproError
from ..memory import KVArena, PagedLayerKVCache
from ..model.kv_cache import LayerKVCache
from ..serving.plan_cache import PlanCache

__all__ = [
    "AUDIT_AREAS",
    "TOLERANCE",
    "GeometryCase",
    "CaseResult",
    "sample_case",
    "sample_cases",
    "run_case",
    "shrink_case",
]

#: Maximum |sparse - oracle| tolerated anywhere (float32 softmax
#: re-association across tilings); the constant every kernel test gates on.
TOLERANCE = 2e-5

#: The cross-checked areas, in execution-chain order.
AUDIT_AREAS = (
    "kernels", "pipeline", "serving", "providers", "paged",
    "packed", "packed_decode",
)

_STRIPE_MODES = ("empty", "full", "random")


@dataclass(frozen=True)
class GeometryCase:
    """One fuzzed attention-call geometry (fully determined by its fields;
    tensors and stripe sets are re-derived from ``seed``)."""

    seed: int
    h: int
    h_kv: int
    s_q: int
    s_k: int
    d: int
    block_size: int
    window: int
    stripe_mode: str
    sink_tokens: int
    dense_last_rows: int
    alpha: float
    r_row: float
    min_keep: int

    def describe(self) -> dict:
        """JSON-ready field dump (the counterexample format)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one (case, area) cross-check."""

    area: str
    passed: bool
    divergence: float
    detail: str
    checks: int = 1
    #: of ``checks``, the bitwise alone-vs-in-batch comparisons
    #: (``packed`` and ``packed_decode``)
    invariance_checks: int = 0
    #: of ``checks``, those that executed a plan with non-empty
    #: ``extras["bands"]`` (``packed`` and ``providers``)
    banded_checks: int = 0
    #: of ``checks``, those that executed an item whose rows are all dense
    #: last rows -- dense causal attention on the plan executor (``packed``)
    dense_checks: int = 0
    #: of ``checks``, those on a decode item of at least
    #: ``_LONG_DECODE_KEYS`` keys (``packed_decode``)
    long_decode_checks: int = 0


def sample_case(rng: np.random.Generator) -> GeometryCase:
    """Draw one adversarial geometry from the fuzz distribution."""
    block_size = int(rng.choice([8, 16, 32]))
    # Bias towards ragged tails: half the draws land off the block grid.
    s_k = int(rng.integers(1, 97))
    if s_k > block_size and s_k % block_size == 0 and rng.random() < 0.5:
        s_k += int(rng.integers(1, block_size))
    # Chunked-prefill offset: half the calls have fewer queries than keys.
    s_q = s_k if rng.random() < 0.5 else int(rng.integers(1, s_k + 1))
    h_kv = int(rng.choice([1, 2, 3]))
    h = h_kv * int(rng.choice([1, 2, 3, 5]))
    d = int(rng.choice([1, 4, 16]))
    window_draw = rng.random()
    if window_draw < 0.15:
        window = 0  # must be rejected by the builders
    elif window_draw < 0.35:
        window = 1
    elif window_draw < 0.5:
        window = s_k
    else:
        window = int(rng.integers(1, s_k + 1))
    return GeometryCase(
        seed=int(rng.integers(0, 2**31 - 1)),
        h=h,
        h_kv=h_kv,
        s_q=s_q,
        s_k=s_k,
        d=d,
        block_size=block_size,
        window=window,
        stripe_mode=str(rng.choice(_STRIPE_MODES)),
        sink_tokens=int(rng.choice([0, 1, 4])),
        dense_last_rows=int(rng.choice([0, 1, s_q])),
        alpha=float(rng.choice([0.05, 0.5, 0.95, 0.999, 1.0])),
        r_row=float(rng.choice([0.01, 0.05, 0.3, 1.0])),
        min_keep=int(rng.choice([0, 1, 2, s_k])),
    )


def sample_cases(seed: int, n: int) -> list[GeometryCase]:
    """``n`` deterministic cases from one campaign seed."""
    rng = np.random.default_rng((0x5A1E, seed))
    return [sample_case(rng) for _ in range(n)]


# --------------------------------------------------------------------------
# Deterministic case materialisation.
# --------------------------------------------------------------------------


def _qkv(case: GeometryCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(case.seed)
    q = rng.standard_normal((case.h, case.s_q, case.d), dtype=np.float32)
    k = rng.standard_normal((case.h_kv, case.s_k, case.d), dtype=np.float32)
    v = rng.standard_normal((case.h_kv, case.s_k, case.d), dtype=np.float32)
    return q, k, v


def _stripes(case: GeometryCase) -> list[np.ndarray]:
    rng = np.random.default_rng(case.seed + 1)
    out: list[np.ndarray] = []
    for _ in range(case.h):
        if case.stripe_mode == "empty":
            idx = np.empty(0, dtype=np.int64)
        elif case.stripe_mode == "full":
            idx = np.arange(case.s_k, dtype=np.int64)
        else:
            n = int(rng.integers(0, case.s_k + 1))
            idx = np.sort(
                rng.choice(case.s_k, size=n, replace=False)
            ).astype(np.int64)
        out.append(idx)
    return out


def _merged_block_mask(case: GeometryCase, stripes: list[np.ndarray]) -> BlockMask:
    """window ∪ stripes ∪ sinks ∪ bottom rows at tile granularity (the same
    merge :meth:`SparsePlan.to_block_mask` performs)."""
    mask = window_block_mask(
        case.h, case.s_q, case.s_k, case.block_size, case.window
    )
    mask = mask | stripe_block_mask(stripes, case.s_q, case.s_k, case.block_size)
    if case.sink_tokens > 0:
        mask = mask | sink_block_mask(
            case.h, case.s_q, case.s_k, case.block_size, case.sink_tokens
        )
    if case.dense_last_rows > 0:
        mask = mask | dense_rows_block_mask(
            case.h, case.s_q, case.s_k, case.block_size, case.dense_last_rows
        )
    return mask


def _plan_element_mask(plan: SparsePlan) -> np.ndarray:
    """Elementwise ``(H, s_q, s_k)`` oracle mask for a :class:`SparsePlan`
    execution: band ``(p - window, p]`` ∪ ``extras["bands"]`` diagonals (a
    band ``(lo, hi)`` holds the causal elements with ``lo <= p - col <
    hi``, shared across heads) ∪ causal stripes ∪ sinks ∪ dense last
    rows."""
    s_q, s_k = plan.s_q, plan.s_k
    rows = np.arange(s_q, dtype=np.int64)[:, None] + (s_k - s_q)  # absolute pos
    cols = np.arange(s_k, dtype=np.int64)[None, :]
    delta = rows - cols
    causal = delta >= 0
    band = causal & (delta < plan.window)
    for lo, hi in plan.extras.get("bands") or ():
        band |= causal & (delta >= lo) & (delta < hi)
    sinks = np.arange(min(max(plan.config.sink_tokens, 0), s_k), dtype=np.int64)
    mask = np.zeros((plan.n_heads, s_q, s_k), dtype=bool)
    for hh, stripes in enumerate(plan.kv_indices):
        keep = np.zeros(s_k, dtype=bool)
        keep[np.union1d(stripes, sinks).astype(np.int64)] = True
        mask[hh] = band | (keep[None, :] & causal)
    if plan.config.dense_last_rows > 0:
        start = max(s_q - plan.config.dense_last_rows, 0)
        mask[:, start:] = causal[start:]
    return mask


def _config(case: GeometryCase) -> SampleAttentionConfig:
    return SampleAttentionConfig(
        alpha=case.alpha,
        r_row=case.r_row,
        r_window=min(1.0, max(case.window, 1) / max(case.s_k, 1)),
        block_size=case.block_size,
        sink_tokens=case.sink_tokens,
        min_keep=case.min_keep,
        dense_last_rows=case.dense_last_rows,
    )


def _divergence(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max()) if a.size else 0.0


# --------------------------------------------------------------------------
# Area checkers.  Each returns a CaseResult; raising is a checker bug.
# --------------------------------------------------------------------------


def _check_kernels(case: GeometryCase) -> CaseResult:
    """flash vs dense-causal, and both block-sparse kernels vs the
    masked-dense oracle on the merged tile mask."""
    q, k, v = _qkv(case)
    stripes = _stripes(case)
    if case.window == 0:
        try:
            window_block_mask(
                case.h, case.s_q, case.s_k, case.block_size, 0
            )
        except MaskError:
            return CaseResult("kernels", True, 0.0, "window=0 rejected")
        return CaseResult(
            "kernels", False, float("inf"), "window=0 accepted by builder"
        )
    mask = _merged_block_mask(case, stripes)

    worst, worst_detail, checks = 0.0, "", 0
    flash = flash_attention(q, k, v)
    oracle_causal = dense_attention(q, k, v).output
    div = _divergence(flash, oracle_causal)
    checks += 1
    if div > worst:
        worst, worst_detail = div, "flash vs dense"

    oracle = dense_attention(q, k, v, mask=mask.to_dense()).output
    for name, out in (
        ("reference", block_sparse_attention(q, k, v, mask).output),
        ("fast", fast_block_sparse_attention(q, k, v, mask).output),
    ):
        div = _divergence(out, oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"{name} vs masked dense"
    return CaseResult(
        "kernels",
        worst <= TOLERANCE,
        worst,
        worst_detail or "all paths agree",
        checks=checks,
    )


def _check_pipeline(case: GeometryCase) -> CaseResult:
    """Full Algorithm 1: plan, execute it, and run the same plan at tile
    granularity through both block kernels -- each vs its own oracle."""
    q, k, v = _qkv(case)
    cfg = _config(case)
    plan = plan_sample_attention(q, k, cfg)
    if not plan.validate():
        return CaseResult(
            "pipeline", False, float("inf"), "fresh plan fails validate()"
        )
    worst, worst_detail, checks = 0.0, "", 0

    out = sample_attention(q, k, v, cfg, plan=plan).output
    oracle = dense_attention(q, k, v, mask=_plan_element_mask(plan)).output
    div = _divergence(out, oracle)
    checks += 1
    if div > worst:
        worst, worst_detail = div, "pipeline vs element oracle"

    mask = plan.to_block_mask()
    block_oracle = dense_attention(q, k, v, mask=mask.to_dense()).output
    for name, out in (
        ("reference", block_sparse_attention(q, k, v, mask).output),
        ("fast", fast_block_sparse_attention(q, k, v, mask).output),
    ):
        div = _divergence(out, block_oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"pipeline block[{name}] vs oracle"
    return CaseResult(
        "pipeline",
        worst <= TOLERANCE,
        worst,
        worst_detail or "pipeline agrees",
        checks=checks,
    )


def _check_serving(case: GeometryCase) -> CaseResult:
    """Serving chain: plan on the first prefix chunk, reuse through
    ``PlanCache.get`` (which re-geometries via ``SparsePlan.extended`` and
    validates), execute the reused plan on the grown prefix, and compare
    against the masked-dense oracle of the *extended* plan."""
    if case.s_k < 2:
        return CaseResult("serving", True, 0.0, "skipped: s_k < 2")
    cfg = _config(case)
    rng = np.random.default_rng(case.seed + 2)
    q_full = rng.standard_normal((case.h, case.s_k, case.d), dtype=np.float32)
    k_full = rng.standard_normal(
        (case.h_kv, case.s_k, case.d), dtype=np.float32
    )
    v_full = rng.standard_normal(
        (case.h_kv, case.s_k, case.d), dtype=np.float32
    )

    s_k0 = max(1, case.s_k // 2)
    plan0 = plan_sample_attention(q_full[:, :s_k0], k_full[:, :s_k0], cfg)
    cache = PlanCache(replan_interval=4)
    cache.put(0, 0, plan0, chunk_index=0)

    s_q1 = case.s_k - s_k0
    plan1 = cache.get(0, 0, chunk_index=1, s_q=s_q1, s_k=case.s_k)
    if plan1 is None:
        # A miss inside the replan interval is only legitimate when the
        # extended plan genuinely fails structural validation at the grown
        # geometry (e.g. min_keep larger than the planning-time prefix) --
        # the engine then replans instead of reusing.  A miss on a plan
        # that would have validated is a cache bug.
        try:
            ext = plan0.extended(s_q=s_q1, s_k=case.s_k)
        except ConfigError:
            ext = None
        if ext is not None and ext.validate(s_k=case.s_k):
            return CaseResult(
                "serving",
                False,
                float("inf"),
                "cache missed a valid in-interval, grown-geometry reuse",
            )
        return CaseResult(
            "serving", True, 0.0, "honest miss: extended plan invalid"
        )
    if not plan1.validate(s_k=case.s_k):
        return CaseResult(
            "serving", False, float("inf"), "extended plan fails validate()"
        )
    q1 = q_full[:, s_k0:]
    out = sample_attention(q1, k_full, v_full, cfg, plan=plan1).output
    oracle = dense_attention(
        q1, k_full, v_full, mask=_plan_element_mask(plan1)
    ).output
    div = _divergence(out, oracle)

    # Unchanged-geometry hits must be bitwise-identical object reuse.
    again = cache.get(0, 0, chunk_index=1, s_q=plan0.s_q, s_k=plan0.s_k)
    if again is not plan0:
        return CaseResult(
            "serving",
            False,
            float("inf"),
            "unchanged-geometry cache hit is not the original plan object",
        )
    return CaseResult(
        "serving",
        div <= TOLERANCE,
        div,
        "reused plan vs extended-plan oracle",
        checks=2,
    )


def _packed_divergence(q, k, v, plan: SparsePlan) -> float:
    """``plan`` through the one executor (a packed batch of one) vs dense
    attention under the plan's element mask, bands included; a
    computed-element count off the mask's own is an infinite divergence."""
    from ..attention.packed import PackedItem, packed_block_sparse_attention

    got = packed_block_sparse_attention(
        [PackedItem.from_plan(q, k, v, plan)]
    ).results[0]
    element_mask = _plan_element_mask(plan)
    if not np.array_equal(got.computed_elements, element_mask.sum(axis=(1, 2))):
        return float("inf")
    oracle = dense_attention(q, k, v, mask=element_mask).output
    return _divergence(got.output, oracle)


def _check_providers(case: GeometryCase) -> CaseResult:
    """Every plan provider's plan -> execute pipeline: one execution (the
    packed kernel, ``extras["bands"]`` included) vs one masked-dense oracle
    of the plan's *element* mask, plus the ``PlanCache.get``/``extended``
    serving-reuse path on the ragged grown geometry -- one area holding
    the whole provider zoo to the same bar as the default planner."""
    from ..config import PLAN_PROVIDER_NAMES
    from ..core.providers import make_provider

    q, k, v = _qkv(case)
    worst, worst_detail, checks, banded = 0.0, "", 0, 0
    for name in PLAN_PROVIDER_NAMES:
        cfg = _config(case).replace(provider=name)
        # Fresh instance per case: stateful providers must not leak
        # profiles across fuzz cases (determinism of the campaign).
        provider = make_provider(name)
        plan = provider.plan(q, k, cfg)
        checks += 1
        if not plan.validate():
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: fresh plan fails validate()",
                checks=checks,
            )

        div = _packed_divergence(q, k, v, plan)
        checks += 1
        banded += bool(plan.extras.get("bands"))
        if div > worst:
            worst, worst_detail = div, f"{name}: executed plan vs oracle"

        if case.s_k < 2:
            continue
        # Serving reuse: plan at the half prefix, reuse through the cache
        # at the grown ragged geometry (s_q < s_k), execute, compare.
        rng = np.random.default_rng(case.seed + 7)
        q_full = rng.standard_normal(
            (case.h, case.s_k, case.d), dtype=np.float32
        )
        k_full = rng.standard_normal(
            (case.h_kv, case.s_k, case.d), dtype=np.float32
        )
        v_full = rng.standard_normal(
            (case.h_kv, case.s_k, case.d), dtype=np.float32
        )
        s_k0 = max(1, case.s_k // 2)
        plan0 = make_provider(name).plan(
            q_full[:, :s_k0], k_full[:, :s_k0], cfg
        )
        cache = PlanCache(replan_interval=4)
        cache.put(0, 0, plan0, chunk_index=0)
        s_q1 = case.s_k - s_k0
        plan1 = cache.get(0, 0, chunk_index=1, s_q=s_q1, s_k=case.s_k)
        checks += 1
        if plan1 is None:
            try:
                ext = plan0.extended(s_q=s_q1, s_k=case.s_k)
            except ConfigError:
                ext = None
            if ext is not None and ext.validate(s_k=case.s_k):
                return CaseResult(
                    "providers",
                    False,
                    float("inf"),
                    f"{name}: cache missed a valid grown-geometry reuse",
                    checks=checks,
                )
            continue  # honest miss: extended plan genuinely invalid
        if not plan1.validate(s_k=case.s_k):
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: extended plan fails validate()",
                checks=checks,
            )
        div = _packed_divergence(q_full[:, s_k0:], k_full, v_full, plan1)
        checks += 1
        banded += bool(plan1.extras.get("bands"))
        if div > worst:
            worst, worst_detail = div, f"{name}: reused plan vs oracle"
        again = cache.get(0, 0, chunk_index=1, s_q=plan0.s_q, s_k=plan0.s_k)
        checks += 1
        if again is not plan0:
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: unchanged-geometry hit is not the original plan",
                checks=checks,
            )
    return CaseResult(
        "providers",
        worst <= TOLERANCE,
        worst,
        worst_detail or "all providers agree",
        checks=checks,
        banded_checks=banded,
    )


def _check_paged(case: GeometryCase) -> CaseResult:
    """Paged-KV gather vs the contiguous cache oracle.

    Mirrors one request's cache life: chunked appends with a mid-stream
    rollback, a copy-on-write fork off an adopted shared prefix, and a
    heavy-hitter-shaped eviction -- each driven identically into a
    :class:`PagedLayerKVCache` and a contiguous :class:`LayerKVCache`.
    The paged views must be *bitwise* equal (a gather moves bytes, it does
    no arithmetic), and attention computed through them must stay within
    ``TOLERANCE`` of the contiguous result.
    """
    rng = np.random.default_rng(case.seed + 3)
    bt = case.block_size  # reuse the fuzzed tile size as paging granularity
    blocks_needed = -(-case.s_k // bt)
    # Room for the request, a forked sibling, and fork/eviction slack.
    arena = KVArena(
        n_blocks=3 * blocks_needed + 4,
        n_kv_heads=case.h_kv,
        block_tokens=bt,
        d_head=case.d,
    )
    paged = PagedLayerKVCache(arena)
    contig = LayerKVCache(case.h_kv, case.d, capacity=max(case.s_k, 1))

    def feed(target_len: int) -> None:
        while len(contig) < target_len:
            n = int(rng.integers(1, target_len - len(contig) + 1))
            k = rng.standard_normal((case.h_kv, n, case.d), dtype=np.float32)
            v = rng.standard_normal((case.h_kv, n, case.d), dtype=np.float32)
            pos = np.arange(len(contig), len(contig) + n, dtype=np.int64)
            paged.append(k, v, pos)
            contig.append(k, v, pos)

    # Chunked fill with one mid-stream rollback (the retry path).
    mid = max(1, case.s_k // 2)
    feed(mid)
    # Read before the rollback so the refill runs against a warm mirror:
    # a watermark left above the mark would resurface rolled-back tokens.
    warm_ok = np.array_equal(paged.keys, contig.keys)
    mark = int(rng.integers(0, mid + 1))
    paged.truncate(mark)
    contig.truncate(mark)
    feed(case.s_k)

    checks = 0
    if not (
        warm_ok
        and np.array_equal(paged.keys, contig.keys)
        and np.array_equal(paged.values, contig.values)
        and np.array_equal(paged.positions, contig.positions)
    ):
        return CaseResult(
            "paged", False, float("inf"), "gather differs from contiguous"
        )
    checks += 1

    # Attention through the gathered views vs through the private arrays.
    q = rng.standard_normal((case.h, case.s_q, case.d), dtype=np.float32)
    out_paged = flash_attention(q, paged.keys, paged.values)
    out_contig = flash_attention(q, contig.keys, contig.values)
    div = _divergence(out_paged, out_contig)
    if div > TOLERANCE:
        return CaseResult(
            "paged", False, div, "attention through paged views diverges"
        )
    checks += 1

    # Copy-on-write: a sibling adopts the full-block prefix, then writes.
    n_shared = min(len(paged) // bt, paged.n_blocks)
    if n_shared > 0:
        sibling = PagedLayerKVCache(arena)
        sibling.adopt_shared(
            list(paged.block_ids[:n_shared]),
            np.asarray(paged.positions[: n_shared * bt]),
        )
        donor_keys = paged.keys.copy()
        sibling.kv()  # mirror the shared prefix before the write below
        n_tail = int(rng.integers(1, bt + 1))
        k_t = rng.standard_normal((case.h_kv, n_tail, case.d), dtype=np.float32)
        v_t = rng.standard_normal((case.h_kv, n_tail, case.d), dtype=np.float32)
        tail_pos = np.arange(
            n_shared * bt, n_shared * bt + n_tail, dtype=np.int64
        )
        sibling.append(k_t, v_t, tail_pos)
        donor_intact = np.array_equal(paged.keys, donor_keys)
        sibling_prefix_ok = np.array_equal(
            sibling.keys[:, : n_shared * bt], contig.keys[:, : n_shared * bt]
        ) and np.array_equal(sibling.keys[:, n_shared * bt :], k_t)
        sibling.release()
        if not donor_intact:
            return CaseResult(
                "paged",
                False,
                float("inf"),
                "copy-on-write fork mutated the donor's shared block",
            )
        if not sibling_prefix_ok:
            return CaseResult(
                "paged",
                False,
                float("inf"),
                "forked sibling's gather differs from its oracle",
            )
        checks += 1

    # Rectangular eviction must commute with paging.
    if len(contig) > 1:
        keep_n = max(1, len(contig) // 2)
        keep = [
            np.sort(
                rng.choice(len(contig), size=keep_n, replace=False)
            ).astype(np.int64)
            for _ in range(case.h_kv)
        ]
        paged.evict(keep)
        contig.evict(keep)
        if not (
            np.array_equal(paged.keys, contig.keys)
            and np.array_equal(paged.values, contig.values)
        ):
            return CaseResult(
                "paged", False, float("inf"), "post-eviction gather differs"
            )
        checks += 1

    paged.release()
    if arena.blocks_in_use != 0:
        return CaseResult(
            "paged",
            False,
            float("inf"),
            f"arena leak: {arena.blocks_in_use} blocks after release",
        )
    checks += 1
    return CaseResult(
        "paged", True, div, "paged gather matches contiguous", checks=checks
    )


def _bands(case: GeometryCase) -> list[tuple[int, int]]:
    """Extra diagonal bands of the hand-built plan: none for half the
    cases, else one or two distance intervals starting anywhere in ``[0,
    s_k]`` -- inside or adjacent to the window, across stripe columns,
    overlapping each other, past the prefix."""
    rng = np.random.default_rng(case.seed + 8)
    if rng.random() < 0.5:
        return []
    bands = []
    for _ in range(int(rng.integers(1, 3))):
        lo = int(rng.integers(0, case.s_k + 1))
        bands.append((lo, lo + int(rng.integers(1, case.s_k // 2 + 2))))
    return bands


def _case_plan(case: GeometryCase) -> SparsePlan:
    """The fuzzed geometry as a hand-built plan (stripes from ``_stripes``,
    bands from ``_bands``, the case's window taken literally, sinks /
    bottom rows / block size from ``_config``) -- what a planner could hand
    the executor."""
    stripes = _stripes(case)
    bands = _bands(case)
    return SparsePlan(
        kv_indices=stripes,
        window=case.window,
        kv_ratio=np.asarray(
            [ix.size / max(case.s_k, 1) for ix in stripes], dtype=np.float64
        ),
        achieved_share=np.ones(case.h),
        sampled_rows=np.arange(min(case.s_q, 1), dtype=np.int64),
        config=_config(case),
        s_q=case.s_q,
        s_k=case.s_k,
        extras={"bands": bands} if bands else {},
    )


def _packed_batch(case: GeometryCase) -> list[tuple]:
    """The packed batch derived from one fuzzed geometry: the case itself
    plus two deterministic ragged siblings (a half-length prefix and a
    single-row decode-like chunk) sharing ``(H, H_kv, d)``."""
    variants = [case]
    s_k2 = max(1, case.s_k // 2 + 1)
    variants.append(
        dataclasses.replace(
            case,
            seed=case.seed + 4,
            s_q=min(case.s_q, s_k2),
            s_k=s_k2,
            window=min(max(case.window, 1), s_k2),
            min_keep=min(case.min_keep, s_k2),
            dense_last_rows=min(case.dense_last_rows, min(case.s_q, s_k2)),
        )
    )
    variants.append(
        dataclasses.replace(
            case,
            seed=case.seed + 5,
            s_q=1,
            window=min(max(case.window, 1), case.s_k),
            dense_last_rows=min(case.dense_last_rows, 1),
        )
    )
    return [(var, *_qkv(var), _case_plan(var)) for var in variants]


def _check_packed(case: GeometryCase) -> CaseResult:
    """The plan executor -- a packed cross-request prefill dispatch -- vs
    the element-mask oracle.

    One :func:`packed_block_sparse_attention` call over the ragged batch
    of hand-built plans must, per item: match dense attention under the
    plan's *element* mask (window ∪ bands ∪ stripes ∪ sinks ∪ dense last
    rows) within ``TOLERANCE``; count exactly that mask's elements per
    head; report the plan's tile footprint (the accounting view -- the
    engine's billing rests on it) exactly as the block fast path counts it
    on ``plan.to_block_mask()``; and be bitwise the same alone as in the
    batch.  A ``window = 0`` plan must be rejected, not executed.
    """
    from ..attention.packed import PackedItem, packed_block_sparse_attention

    if case.window == 0:
        try:
            packed_block_sparse_attention(
                [PackedItem.from_plan(*_qkv(case), _case_plan(case))]
            )
        except (ConfigError, MaskError):
            return CaseResult("packed", True, 0.0, "window=0 rejected")
        return CaseResult(
            "packed", False, float("inf"), "window=0 accepted by executor"
        )
    batch = _packed_batch(case)
    items = [PackedItem.from_plan(q, k, v, plan) for _, q, k, v, plan in batch]
    workspace = KernelWorkspace()
    res = packed_block_sparse_attention(items, workspace=workspace)

    worst, worst_detail, checks, invariance, banded, dense = 0.0, "", 0, 0, 0, 0
    for (var, q, k, v, plan), item, got in zip(batch, items, res.results):
        where = f"(s_q={var.s_q}, s_k={var.s_k})"
        checks_before = checks
        element_mask = _plan_element_mask(plan)
        oracle = dense_attention(q, k, v, mask=element_mask).output
        div = _divergence(got.output, oracle)
        checks += 1
        if div > worst:
            worst, worst_detail = div, f"packed item {where} vs element oracle"
        failure = None
        checks += 1
        if not np.array_equal(
            got.computed_elements, element_mask.sum(axis=(1, 2))
        ):
            failure = f"computed elements diverge from the element mask at {where}"
        ref = fast_block_sparse_attention(q, k, v, item.mask, workspace=workspace)
        checks += 1
        if not np.array_equal(got.visited_blocks, ref.visited_blocks):
            failure = f"tile footprint diverges from the fast path at {where}"
        alone = packed_block_sparse_attention([item]).results[0]
        checks += 1
        invariance += 1
        if not np.array_equal(alone.output, got.output):
            failure = f"item {where} differs alone vs in the batch"
        if item.bands:
            banded += checks - checks_before
        if item.dense_last_rows >= var.s_q:
            dense += checks - checks_before
        if failure is not None:
            return CaseResult("packed", False, float("inf"), failure)
    return CaseResult(
        "packed",
        worst <= TOLERANCE,
        worst,
        worst_detail or "packed batch agrees",
        checks=checks,
        invariance_checks=invariance,
        banded_checks=banded,
        dense_checks=dense,
    )


#: Keys of the long item every ``packed_decode`` case carries: the fuzzed
#: ``s_k`` stops at 128, below the cache length (~700 keys) where BLAS
#: leaves its small-matrix path and a decode GEMM's operand order starts
#: to matter.
_LONG_DECODE_KEYS = 1024


def _check_packed_decode(case: GeometryCase) -> CaseResult:
    """Fused decode batch: oracle tolerance, batch invariance, strided KV.

    A ragged batch of single-row items (KV lengths ``s_k``, ``s_k//2+1``,
    ``1`` and one serving-length ``_LONG_DECODE_KEYS + s_k``, counted in
    ``long_decode_checks``) goes through one
    :func:`packed_decode_attention` call in a shuffled order.  Each item's
    output and probabilities (the H2O mass feed) must be

    * within ``TOLERANCE`` of ``dense_attention(q, k, v, causal=False)``;
    * *bitwise* equal to the same item dispatched alone -- batch
      invariance, the property serving token parity across batching modes
      and co-scheduling orders rests on (counted in
      ``invariance_checks``);
    * computed from strided views: K/V are prefixes of over-allocated
      caches whose tail is NaN, as the serving caches hand them over, so
      a kernel that copies or reads past ``s_k`` poisons its output.
    """
    from ..attention.packed import PackedDecodeItem, packed_decode_attention

    lengths = sorted(
        {case.s_k, case.s_k // 2 + 1, 1, _LONG_DECODE_KEYS + case.s_k}
    )
    rng = np.random.default_rng(case.seed + 6)
    items = []
    for s_k in lengths:
        q = rng.standard_normal((case.h, 1, case.d), dtype=np.float32)
        kv = []
        for _ in range(2):
            cache = np.full((case.h_kv, s_k + 3, case.d), np.nan, np.float32)
            cache[:, :s_k] = rng.standard_normal(
                (case.h_kv, s_k, case.d), dtype=np.float32
            )
            kv.append(cache[:, :s_k])
        items.append(PackedDecodeItem(q=q, k=kv[0], v=kv[1], tag=s_k))
    order = rng.permutation(len(items))
    batch = [items[j] for j in order]
    res = packed_decode_attention(batch, return_probs=True)

    worst, checks, invariance, long_checks = 0.0, 0, 0, 0

    def fail(div: float, detail: str) -> CaseResult:
        return CaseResult(
            "packed_decode", False, div, detail,
            checks=checks, invariance_checks=invariance,
            long_decode_checks=long_checks,
        )

    for it, got, probs in zip(batch, res.outputs, res.probs):
        oracle = dense_attention(
            it.q,
            np.ascontiguousarray(it.k),
            np.ascontiguousarray(it.v),
            causal=False,
            return_probs=True,
        )
        alone = packed_decode_attention([it], return_probs=True)
        for name, mine, ref, solo in (
            ("output", got, oracle.output, alone.outputs[0]),
            ("probs", probs, oracle.probs, alone.probs[0]),
        ):
            checks += 2
            invariance += 1
            if it.tag >= _LONG_DECODE_KEYS:
                long_checks += 2
            div = _divergence(mine, ref)
            if not div <= TOLERANCE:
                return fail(
                    div, f"decode {name} vs dense oracle at s_k={it.tag}"
                )
            worst = max(worst, div)
            if not np.array_equal(mine, solo):
                return fail(
                    _divergence(mine, solo),
                    f"decode {name} at s_k={it.tag} differs alone vs in "
                    f"the batch (not batch-invariant)",
                )
    expected = np.cumsum([0] + [it.tag for it in batch])
    checks += 1
    if not np.array_equal(res.cu_seqlens, expected):
        return fail(
            float("inf"),
            f"cu_seqlens {res.cu_seqlens.tolist()} != ragged offsets "
            f"{expected.tolist()}",
        )
    return CaseResult(
        "packed_decode",
        True,
        worst,
        "fused decode batch within tolerance and batch-invariant",
        checks=checks,
        invariance_checks=invariance,
        long_decode_checks=long_checks,
    )


_CHECKERS = {
    "kernels": _check_kernels,
    "pipeline": _check_pipeline,
    "serving": _check_serving,
    "providers": _check_providers,
    "paged": _check_paged,
    "packed": _check_packed,
    "packed_decode": _check_packed_decode,
}


def run_case(case: GeometryCase, area: str) -> CaseResult:
    """Cross-check one geometry in one area; checker crashes fail too."""
    checker = _CHECKERS.get(area)
    if checker is None:
        raise ConfigError(
            f"unknown audit area {area!r}; expected one of {AUDIT_AREAS}"
        )
    try:
        return checker(case)
    except ReproError as exc:  # an unexpected rejection is a failure
        return CaseResult(
            area, False, float("inf"), f"{type(exc).__name__}: {exc}"
        )


# --------------------------------------------------------------------------
# Shrinking.
# --------------------------------------------------------------------------


def _valid(case: GeometryCase) -> bool:
    return (
        case.h_kv >= 1
        and case.h >= case.h_kv
        and case.h % case.h_kv == 0
        and 1 <= case.s_q <= case.s_k
        and case.d >= 1
        and case.block_size >= 1
        and (case.block_size & (case.block_size - 1)) == 0
        and 0 <= case.window <= case.s_k
        and case.stripe_mode in _STRIPE_MODES
        and case.sink_tokens >= 0
        and case.dense_last_rows >= 0
        and case.min_keep >= 0
    )


def _shrink_candidates(case: GeometryCase) -> list[GeometryCase]:
    """Strictly-smaller neighbours, most aggressive first."""
    out = []

    def add(**changes):
        cand = dataclasses.replace(case, **changes)
        if cand != case and _valid(cand):
            out.append(cand)

    add(h=case.h_kv, h_kv=case.h_kv)  # drop GQA fan-out
    add(h=1, h_kv=1)
    for smaller_k in (max(1, case.s_k // 2), case.s_k - 1):
        if smaller_k >= 1:
            add(
                s_k=smaller_k,
                s_q=min(case.s_q, smaller_k),
                window=min(case.window, smaller_k),
                min_keep=min(case.min_keep, smaller_k),
            )
    add(s_q=max(1, case.s_q // 2))
    if case.s_q > 1:
        add(s_q=case.s_q - 1)
    add(d=max(1, case.d // 2))
    add(block_size=max(8, case.block_size // 2))
    if case.window > 1:
        add(window=1)
    add(stripe_mode="empty")
    add(sink_tokens=0)
    add(dense_last_rows=0)
    add(min_keep=min(case.min_keep, 1))
    add(alpha=0.95)
    add(r_row=0.05)
    return out


def shrink_case(
    case: GeometryCase, area: str, *, max_steps: int = 64
) -> GeometryCase:
    """Greedy shrink: repeatedly accept the first smaller neighbour that
    still fails ``area``'s cross-check, until none does (or the budget
    runs out).  Deterministic given the case."""
    current = case
    for _ in range(max_steps):
        for cand in _shrink_candidates(current):
            if not run_case(cand, area).passed:
                current = cand
                break
        else:
            return current
    return current
