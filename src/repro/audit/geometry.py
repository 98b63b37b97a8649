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

Each area turns one :class:`GeometryCase` into calls to the checks of
:mod:`repro.audit.oracles` -- the same functions the property suites and
the unit tests call.  A case is fully determined by its fields, so a
failing one is reproduced by passing them to :func:`run_case`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..attention.dense import dense_attention
from ..attention.flash import flash_attention
from ..attention.masks import window_block_mask
from ..attention.packed import (
    PackedDecodeItem,
    PackedItem,
    packed_block_sparse_attention,
)
from ..config import PLAN_PROVIDER_NAMES, SampleAttentionConfig
from ..core.plan import SparsePlan
from ..core.providers import make_provider
from ..core.sample_attention import plan_sample_attention
from ..errors import ConfigError, MaskError, ReproError
from ..memory import KVArena, PagedLayerKVCache
from ..model.kv_cache import LayerKVCache
from ..serving.plan_cache import PlanCache
from .oracles import (
    LONG_DECODE_KEYS,
    TOLERANCE,
    CaseResult,
    check_block_kernels,
    check_decode_batch,
    check_prefill_batch,
    divergence,
    hand_built_plan,
)

__all__ = [
    "AUDIT_AREAS",
    "GeometryCase",
    "sample_case",
    "sample_cases",
    "run_case",
]

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


def _bands(case: GeometryCase) -> list[tuple[int, int]]:
    """Extra diagonal bands of the case's plan: none for half the cases,
    else one or two distance intervals starting anywhere in ``[0, s_k]``
    -- inside or adjacent to the window, across stripe columns,
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
    """The fuzzed geometry as a hand-built plan: stripes from
    ``_stripes``, bands from ``_bands``, the case's window taken
    literally."""
    return hand_built_plan(
        _stripes(case),
        case.s_q,
        case.s_k,
        window=case.window,
        bands=_bands(case),
        block_size=case.block_size,
        sink_tokens=case.sink_tokens,
        dense_last_rows=case.dense_last_rows,
    )


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


def _merged(area: str, parts: list[CaseResult]) -> CaseResult:
    """One area's result from its checks' results: it passes when every
    part passes, names the first failure (else the worst divergence), and
    adds up the counters."""
    failed = [r for r in parts if not r.passed]
    worst = max(parts, key=lambda r: r.divergence)
    counts = [r.counters() for r in parts]
    return CaseResult(
        area,
        not failed,
        worst.divergence,
        (failed or [worst])[0].detail,
        **{name: sum(c[name] for c in counts) for name in counts[0]},
    )


# --------------------------------------------------------------------------
# Area checkers.  Each returns a CaseResult; raising is a checker bug.
# --------------------------------------------------------------------------


def _check_kernels(case: GeometryCase) -> CaseResult:
    """flash vs dense-causal, and both block-sparse kernels vs the
    masked-dense oracle on the case plan's tile mask (window ∪ stripes ∪
    sinks ∪ bottom rows)."""
    if case.window == 0:
        try:
            window_block_mask(case.h, case.s_q, case.s_k, case.block_size, 0)
        except MaskError:
            return CaseResult("kernels", True, 0.0, "window=0 rejected")
        return CaseResult(
            "kernels", False, float("inf"), "window=0 accepted by builder"
        )
    q, k, v = _qkv(case)
    div = divergence(flash_attention(q, k, v), dense_attention(q, k, v).output)
    return _merged("kernels", [
        CaseResult("flash", div <= TOLERANCE, div, "flash vs dense"),
        check_block_kernels(q, k, v, _case_plan(case).to_block_mask()),
    ])


def _check_pipeline(case: GeometryCase) -> CaseResult:
    """Full Algorithm 1: plan, execute the plan under the prefill
    contract, and run it at tile granularity through both block kernels."""
    q, k, v = _qkv(case)
    plan = plan_sample_attention(q, k, _config(case))
    if not plan.validate():
        return CaseResult(
            "pipeline", False, float("inf"), "fresh plan fails validate()"
        )
    item = PackedItem.from_plan(q, k, v, plan)
    return _merged("pipeline", [
        check_prefill_batch([item], [plan]),
        check_block_kernels(q, k, v, item.mask),
    ])


def _serving_reuse(
    area: str, case: GeometryCase, planner, seed: int
) -> CaseResult:
    """Serving chain: ``planner`` plans the first half of a prefix, the
    plan is reused through ``PlanCache.get`` (which re-geometries via
    ``SparsePlan.extended`` and validates) on the ragged grown geometry,
    and executing the reused plan must meet the prefill contract; an
    unchanged-geometry hit must return the original plan object."""
    rng = np.random.default_rng(seed)
    q, k, v = (
        rng.standard_normal((h, case.s_k, case.d), dtype=np.float32)
        for h in (case.h, case.h_kv, case.h_kv)
    )
    s_k0 = max(1, case.s_k // 2)
    plan0 = planner(q[:, :s_k0], k[:, :s_k0])
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
                area,
                False,
                float("inf"),
                "cache missed a valid in-interval, grown-geometry reuse",
            )
        return CaseResult(area, True, 0.0, "honest miss: extended plan invalid")
    if not plan1.validate(s_k=case.s_k):
        return CaseResult(
            area, False, float("inf"), "extended plan fails validate()"
        )
    item = PackedItem.from_plan(q[:, s_k0:], k, v, plan1)
    same = cache.get(0, 0, chunk_index=1, s_q=plan0.s_q, s_k=plan0.s_k) is plan0
    return _merged(area, [
        check_prefill_batch([item], [plan1]),
        CaseResult(
            area,
            same,
            0.0 if same else float("inf"),
            "unchanged-geometry cache hit vs the original plan object",
        ),
    ])


def _check_serving(case: GeometryCase) -> CaseResult:
    """The serving chain with the default planner."""
    if case.s_k < 2:
        return CaseResult("serving", True, 0.0, "skipped: s_k < 2")
    planner = partial(plan_sample_attention, config=_config(case))
    return _serving_reuse("serving", case, planner, case.seed + 2)


def _check_providers(case: GeometryCase) -> CaseResult:
    """Every plan provider's plan -> execute pipeline: a fresh plan must
    validate and its execution (the packed kernel, ``extras["bands"]``
    included) meet the prefill contract, then survive the serving chain --
    one area holding the whole provider zoo to the same bar as the default
    planner."""
    q, k, v = _qkv(case)
    parts = []
    for name in PLAN_PROVIDER_NAMES:
        cfg = _config(case).replace(provider=name)
        # Fresh instance per plan: stateful providers must not leak
        # profiles across fuzz cases (determinism of the campaign).
        plan = make_provider(name).plan(q, k, cfg)
        if not plan.validate():
            return CaseResult(
                "providers",
                False,
                float("inf"),
                f"{name}: fresh plan fails validate()",
            )
        parts.append(
            check_prefill_batch([PackedItem.from_plan(q, k, v, plan)], [plan])
        )
        if case.s_k >= 2:
            planner = partial(make_provider(name).plan, config=cfg)
            parts.append(
                _serving_reuse("providers", case, planner, case.seed + 7)
            )
    return _merged("providers", parts)


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
    fail = partial(CaseResult, "paged", False, float("inf"))
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
        return fail("gather differs from contiguous")
    checks += 1

    # Attention through the gathered views vs through the private arrays.
    q = rng.standard_normal((case.h, case.s_q, case.d), dtype=np.float32)
    out_paged = flash_attention(q, paged.keys, paged.values)
    out_contig = flash_attention(q, contig.keys, contig.values)
    div = divergence(out_paged, out_contig)
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
            return fail("copy-on-write fork mutated the donor's shared block")
        if not sibling_prefix_ok:
            return fail("forked sibling's gather differs from its oracle")
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
            return fail("post-eviction gather differs")
        checks += 1

    paged.release()
    if arena.blocks_in_use != 0:
        return fail(f"arena leak: {arena.blocks_in_use} blocks after release")
    checks += 1
    return CaseResult(
        "paged", True, div, "paged gather matches contiguous", checks=checks
    )


def _check_packed(case: GeometryCase) -> CaseResult:
    """The plan executor -- one packed cross-request prefill dispatch --
    under the prefill contract, over the case itself plus two
    deterministic ragged siblings sharing ``(H, H_kv, d)`` (a half-length
    prefix and a single-row decode-like chunk), each a hand-built plan.
    A ``window = 0`` plan must be rejected, not executed."""
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
    s_k2 = max(1, case.s_k // 2 + 1)
    variants = [
        case,
        dataclasses.replace(
            case,
            seed=case.seed + 4,
            s_q=min(case.s_q, s_k2),
            s_k=s_k2,
            window=min(case.window, s_k2),
            min_keep=min(case.min_keep, s_k2),
            dense_last_rows=min(case.dense_last_rows, min(case.s_q, s_k2)),
        ),
        dataclasses.replace(
            case,
            seed=case.seed + 5,
            s_q=1,
            dense_last_rows=min(case.dense_last_rows, 1),
        ),
    ]
    plans = [_case_plan(var) for var in variants]
    items = [
        PackedItem.from_plan(*_qkv(var), plan)
        for var, plan in zip(variants, plans)
    ]
    result = check_prefill_batch(items, plans)
    return dataclasses.replace(result, area="packed")


def _check_packed_decode(case: GeometryCase) -> CaseResult:
    """Fused decode batch under the decode contract.

    A ragged batch of single-row items (KV lengths ``s_k``, ``s_k//2+1``,
    ``1`` and one serving-length ``LONG_DECODE_KEYS + s_k``) goes through
    one dispatch in a shuffled order.  K/V are prefixes of over-allocated
    caches whose tail is NaN, as the serving caches hand them over, so a
    kernel that copies or reads past ``s_k`` poisons its output.
    """
    lengths = sorted(
        {case.s_k, case.s_k // 2 + 1, 1, LONG_DECODE_KEYS + case.s_k}
    )
    rng = np.random.default_rng(case.seed + 6)

    def cache_view(s_k: int) -> np.ndarray:
        cache = np.full((case.h_kv, s_k + 3, case.d), np.nan, np.float32)
        cache[:, :s_k] = rng.standard_normal(
            (case.h_kv, s_k, case.d), dtype=np.float32
        )
        return cache[:, :s_k]

    items = [
        PackedDecodeItem(
            q=rng.standard_normal((case.h, 1, case.d), dtype=np.float32),
            k=cache_view(s_k),
            v=cache_view(s_k),
        )
        for s_k in lengths
    ]
    order = rng.permutation(len(items))
    batch = [items[j] for j in order]
    result = check_decode_batch(batch)
    return dataclasses.replace(result, area="packed_decode")


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
