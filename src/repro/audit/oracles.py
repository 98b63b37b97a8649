"""Oracles and kernel-contract checks: the one copy every gate calls.

The paper's near-lossless claim (Theorems 1-2) is held here to one gold
standard: dense attention under the plan's *element* mask.  The executor
attends at stripe granularity, so no tile mask can stand in for it.  The
audit's areas (:mod:`repro.audit.geometry`), the hypothesis property
suites and the unit tests all call the functions below, so each oracle
and each kernel contract is written once:

* :func:`plan_element_mask` -- the elementwise mask a plan executes;
* :func:`hand_built_plan` -- a plan from explicit stripes, window and
  bands, what a planner could hand the executor;
* :func:`check_prefill_batch` -- the packed prefill contract;
* :func:`check_decode_batch` -- the packed decode contract;
* :func:`check_block_kernels` -- both block-sparse kernels vs the tile
  mask's dense oracle.

Each check returns a :class:`CaseResult` instead of raising, so the CLI
campaign can count what ran; a test asserts ``result.passed``.  The
module depends on numpy and this package only -- no test framework -- so
the campaign runs where only the runtime dependencies are installed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention.blocksparse import block_sparse_attention
from ..attention.dense import dense_attention
from ..attention.fastpath import fast_block_sparse_attention
from ..attention.masks import BlockMask
from ..attention.packed import (
    PackedDecodeItem,
    PackedItem,
    packed_block_sparse_attention,
    packed_decode_attention,
)
from ..attention.utils import total_causal_elements
from ..config import SampleAttentionConfig
from ..core.plan import SparsePlan

__all__ = [
    "TOLERANCE",
    "LONG_DECODE_KEYS",
    "CaseResult",
    "divergence",
    "plan_element_mask",
    "hand_built_plan",
    "check_prefill_batch",
    "check_decode_batch",
    "check_block_kernels",
]

#: Maximum |kernel - oracle| tolerated anywhere (float32 softmax
#: re-association across tilings); the constant every kernel gate uses.
TOLERANCE = 2e-5

#: Decode items of at least this many keys count in
#: ``long_decode_checks``: past the cache length (~700 keys) where BLAS
#: leaves its small-matrix path and a decode GEMM's operand order starts
#: to matter.
LONG_DECODE_KEYS = 1024

_TINY = np.finfo(np.float32).tiny

#: The :class:`CaseResult` counters ``AUDIT.json`` adds up per area.
_COUNTERS = (
    "checks",
    "invariance_checks",
    "banded_checks",
    "dense_checks",
    "long_decode_checks",
)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one check (or of one audit area, which adds up its
    checks' results)."""

    area: str
    passed: bool
    divergence: float
    detail: str
    checks: int = 1
    #: of ``checks``, the bitwise alone-vs-in-batch comparisons
    invariance_checks: int = 0
    #: of ``checks``, those on an item with non-empty ``extras["bands"]``
    banded_checks: int = 0
    #: of ``checks``, those on an item whose rows are all dense last rows
    #: -- dense causal attention on the plan executor
    dense_checks: int = 0
    #: of ``checks``, those on a decode item of at least
    #: ``LONG_DECODE_KEYS`` keys
    long_decode_checks: int = 0

    def counters(self) -> dict[str, int]:
        """``checks`` and its sub-counts by name (``AUDIT.json``'s per-area
        counters add these up)."""
        return {name: getattr(self, name) for name in _COUNTERS}


def divergence(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|``; a NaN anywhere is an infinite divergence."""
    if not a.size:
        return 0.0
    div = float(np.abs(a - b).max())
    return div if div == div else float("inf")


def plan_element_mask(plan: SparsePlan) -> np.ndarray:
    """Elementwise ``(H, s_q, s_k)`` mask a plan executes: the window band
    ``(p - window, p]`` ∪ the ``extras["bands"]`` diagonals (a band ``(lo,
    hi)`` holds the causal elements with ``lo <= p - col < hi``, shared
    across heads) ∪ causal stripe and sink columns ∪ dense last rows.
    Built longhand, independently of the kernel's geometry code."""
    s_q, s_k = plan.s_q, plan.s_k
    rows = np.arange(s_q, dtype=np.int64)[:, None] + (s_k - s_q)  # absolute pos
    delta = rows - np.arange(s_k, dtype=np.int64)[None, :]
    causal = delta >= 0
    band = causal & (delta < plan.window)
    for lo, hi in plan.extras.get("bands") or ():
        band |= causal & (delta >= lo) & (delta < hi)
    mask = np.empty((plan.n_heads, s_q, s_k), dtype=bool)
    for hh, stripes in enumerate(plan.kv_indices):
        keep = np.zeros(s_k, dtype=bool)
        keep[np.asarray(stripes, dtype=np.int64)] = True
        keep[: plan.config.sink_tokens] = True
        mask[hh] = band | (keep[None, :] & causal)
    start = s_q - min(plan.config.dense_last_rows, s_q)
    mask[:, start:] = causal[start:]
    return mask


def hand_built_plan(
    kv_indices,
    s_q: int,
    s_k: int,
    *,
    window: int,
    bands=(),
    block_size: int = 16,
    sink_tokens: int = 0,
    dense_last_rows: int = 0,
) -> SparsePlan:
    """A :class:`SparsePlan` with explicit per-head stripe columns, the
    ``window`` taken literally (``0`` included: executing it must fail)
    and ``bands`` as its ``extras["bands"]``."""
    kv_indices = [np.asarray(ix, dtype=np.int64) for ix in kv_indices]
    return SparsePlan(
        kv_indices=kv_indices,
        window=window,
        kv_ratio=np.asarray([ix.size / s_k for ix in kv_indices]),
        achieved_share=np.ones(len(kv_indices)),
        sampled_rows=np.arange(min(s_q, 1), dtype=np.int64),
        config=SampleAttentionConfig(
            block_size=block_size,
            sink_tokens=sink_tokens,
            dense_last_rows=dense_last_rows,
        ),
        s_q=s_q,
        s_k=s_k,
        extras={"bands": list(bands)} if bands else {},
    )


def _stats_check(stats: dict, requests: str, tokens: str,
                 lengths: list[int]) -> str | None:
    """``None`` when a dispatch's ``stats`` count its items under
    ``requests`` and the sum of their ragged ``lengths`` under ``tokens``."""
    expected = {requests: len(lengths), tokens: sum(lengths)}
    got = {key: stats.get(key) for key in expected}
    if got == expected:
        return None
    return f"dispatch stats {got} != items {expected}"


def check_prefill_batch(
    items: list[PackedItem],
    plans: list[SparsePlan],
    tiles: list[BlockMask] | None = None,
) -> CaseResult:
    """The packed prefill contract on one dispatch over ``items`` (item
    ``i`` executing ``plans[i]``, whose tile view is ``tiles[i]``, built
    here when the caller holds none).  Per item:

    * the output is within ``TOLERANCE`` of dense attention under
      :func:`plan_element_mask`;
    * ``computed_elements`` equal both that mask's per-head sum and
      ``plan.element_counts()``;
    * the plan's tile footprint (``plan.to_block_mask()``, what the
      engine bills) equals what the block fast path visits on it;
    * in a batch of more than one, output and computed elements are
      bitwise the same dispatched alone (``invariance_checks``);

    and the dispatch's stats count the items and their rows.
    """
    res = packed_block_sparse_attention(items)
    failure = _stats_check(
        res.stats, "packed_requests", "packed_rows",
        [it.q.shape[1] for it in items],
    )
    worst, worst_detail = 0.0, "prefill batch agrees"
    counts = dict(checks=1, invariance_checks=0, banded_checks=0, dense_checks=0)
    if tiles is None:
        tiles = [plan.to_block_mask() for plan in plans]
    for item, plan, tile_view, got in zip(items, plans, tiles, res.results):
        where = f"(s_q={plan.s_q}, s_k={plan.s_k})"
        mask = plan_element_mask(plan)
        oracle = dense_attention(
            item.q, item.k, item.v, mask=mask, scale=item.scale
        ).output
        div = divergence(got.output, oracle)
        if div > worst:
            worst, worst_detail = div, f"item {where} vs the element oracle"
        per_head = mask.sum(axis=(1, 2))
        if not (
            np.array_equal(got.computed_elements, per_head)
            and np.array_equal(per_head, plan.element_counts())
            and got.total_causal_elements
            == total_causal_elements(plan.s_q, plan.s_k)
        ):
            failure = f"computed elements diverge from the element mask at {where}"
        ref = fast_block_sparse_attention(item.q, item.k, item.v, tile_view)
        if not np.array_equal(tile_view.active_blocks(), ref.visited_blocks):
            failure = f"tile footprint diverges from the fast path at {where}"
        n = 3
        if len(items) > 1:
            n += 1
            counts["invariance_checks"] += 1
            alone = packed_block_sparse_attention([item]).results[0]
            if not all(
                np.array_equal(getattr(alone, f), getattr(got, f))
                for f in ("output", "computed_elements")
            ):
                failure = f"item {where} differs alone vs in the batch"
        counts["checks"] += n
        if item.bands:
            counts["banded_checks"] += n
        if item.dense_last_rows >= plan.s_q:
            counts["dense_checks"] += n
    if failure is not None:
        return CaseResult("prefill", False, float("inf"), failure, **counts)
    return CaseResult(
        "prefill", worst <= TOLERANCE, worst, worst_detail, **counts
    )


def check_decode_batch(items: list[PackedDecodeItem]) -> CaseResult:
    """The packed decode contract on one dispatch over ``items``.  Per
    item, its output and probabilities (the H2O mass feed) are:

    * within ``TOLERANCE`` of ``dense_attention(causal=False)`` -- the
      output in the query's dtype and shape, every probability a normal
      float32 or zero (the kernel clamps ``score - row max`` before
      ``exp``, so no weight is denormal) and every row of probabilities
      summing to 1 within ``1e-6``;
    * in a batch of more than one, *bitwise* equal to the same item
      dispatched alone -- batch invariance, the property serving token
      parity across batching modes and co-scheduling orders rests on
      (``invariance_checks``);

    and the dispatch's stats count the items and their cached keys.
    """
    res = packed_decode_attention(items, return_probs=True)
    worst, checks, invariance, long_checks = 0.0, 0, 0, 0

    def result(passed: bool, div: float, detail: str) -> CaseResult:
        return CaseResult(
            "decode", passed, div, detail,
            checks=checks, invariance_checks=invariance,
            long_decode_checks=long_checks,
        )

    for it, out, probs in zip(items, res.outputs, res.probs):
        s_k = it.k.shape[1]
        oracle = dense_attention(
            it.q,
            np.ascontiguousarray(it.k),
            np.ascontiguousarray(it.v),
            causal=False,
            scale=it.scale,
            return_probs=True,
        )
        solo = (None, None)
        if len(items) > 1:
            alone = packed_decode_attention([it], return_probs=True)
            solo = (alone.outputs[0], alone.probs[0])
        for name, mine, ref, single, well_formed in (
            ("output", out, oracle.output, solo[0],
             out.dtype == it.q.dtype and out.shape == it.q.shape),
            ("probs", probs, oracle.probs, solo[1],
             bool(np.all((probs == 0) | (probs >= _TINY)))
             and np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-6),
        ):
            n = 1 if single is None else 2
            checks += n
            invariance += n - 1
            if s_k >= LONG_DECODE_KEYS:
                long_checks += n
            div = divergence(mine, ref)
            if not (div <= TOLERANCE and well_formed):
                return result(
                    False, div, f"decode {name} vs dense oracle at s_k={s_k}"
                )
            worst = max(worst, div)
            if single is not None and not np.array_equal(mine, single):
                return result(
                    False,
                    divergence(mine, single),
                    f"decode {name} at s_k={s_k} differs alone vs in the "
                    f"batch (not batch-invariant)",
                )
    checks += 1
    failure = _stats_check(
        res.stats, "decode_requests", "kv_tokens",
        [it.k.shape[1] for it in items],
    )
    if failure is not None:
        return result(False, float("inf"), failure)
    return result(True, worst, "decode batch within tolerance and batch-invariant")


def check_block_kernels(q, k, v, mask: BlockMask) -> CaseResult:
    """Both block-sparse kernels -- the tile-at-a-time reference and the
    coalesced fast path -- within ``TOLERANCE`` of dense attention under
    the tile mask."""
    oracle = dense_attention(q, k, v, mask=mask.to_dense()).output
    worst, detail = 0.0, "block kernels agree"
    for name, kernel in (
        ("reference", block_sparse_attention),
        ("fast", fast_block_sparse_attention),
    ):
        div = divergence(kernel(q, k, v, mask).output, oracle)
        if div > worst:
            worst, detail = div, f"{name} block kernel vs the tile oracle"
    return CaseResult("block_kernels", worst <= TOLERANCE, worst, detail, checks=2)
