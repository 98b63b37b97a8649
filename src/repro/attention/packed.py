"""Packed cross-request execution of the block-sparse kernel.

PR 4's :mod:`repro.attention.fastpath` removed the per-tile Python loop
*inside* one attention call; the serving hot path still pays one
:func:`~repro.attention.fastpath.fast_block_sparse_attention` call per
``(request, layer, chunk)`` -- per-call validation, norm reductions,
pattern grouping, and per-slab scratch churn that dominate at serving
chunk shapes (a 256-row chunk against a few thousand KV tokens spends
25-50% of its wall clock outside the GEMMs).  This module is the
varlen-style batched replacement real serving stacks use: at each engine
batch step the co-scheduled chunks' query rows are concatenated into one
packed workspace (cu-seqlen offsets per request), head-pattern groups
are merged *across the batch* (identical packbits signatures from
different requests share one indexing computation), and the whole batch
executes as **one dispatch** with exact unpacking back to per-request
outputs and per-request visited-tile accounting.

The *accounting* is bitwise identical to running
``fast_block_sparse_attention`` once per item: visited-tile counts,
achieved densities, and every registry counter derived from them match
exactly (the serving parity gate pins this).  The *outputs* agree to
float32 summation tolerance (< 1e-5 in practice, gated at 2e-5): the
packed executor merges each head-pattern group's q-blocks into one slab
and masks with dense arithmetic (bias-add + clamp) instead of the fast
path's predicated ``where=`` writes, so GEMM shapes and summation order
differ while the set of contributing entries does not.  What it removes:

* **One fixed-cost pass per batch** -- validation, scale folding, and
  softmax-stabilisation bounds are computed in one sweep over the packed
  layout; callers that track their KV incrementally can pass a cached
  ``k_norm_sq`` and skip the O(S_k) reduction entirely.
* **Cross-batch signature sharing** -- ``packbits`` head-pattern
  grouping and tile-run coalescing are memoised on the pattern bytes, so
  B requests executing the same plan shape pay for the indexing once
  (``pattern_hits`` in the stats counts the amortisation).
* **Whole-chunk slabs with arithmetic masking** -- per group, all chunk
  rows execute against the union of visited columns as one tall (or
  GQA-batched) GEMM; block-pattern and causal masking are applied as a
  float bias plus a pre-``exp`` clamp, avoiding both the predicated
  masked-copy pass and ``exp``'s denormal slow path that dominate the
  per-request schedule at serving chunk shapes.

Entry point: :func:`packed_block_sparse_attention` over a list of
:class:`PackedItem`; the :class:`PackedAttentionResult` carries one
per-item :class:`~repro.attention.blocksparse.BlockSparseResult` plus the
merged dispatch-level stats record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MaskError, ShapeError
from .blocksparse import BlockSparseResult, _total_causal_blocks
from .fastpath import KernelWorkspace
from .masks import BlockMask
from .utils import NEG_INF, decode_row_attention, validate_qkv

__all__ = [
    "PackedItem",
    "PackedAttentionResult",
    "PackedDecodeItem",
    "PackedDecodeResult",
    "packed_block_sparse_attention",
    "packed_decode_attention",
]

#: Mirror of :data:`repro.attention.fastpath._SPAN_COVERAGE` -- the packed
#: executor must make the *same* span-vs-gather decision as the fast path
#: for bitwise parity.
_SPAN_COVERAGE = 0.75

#: Cauchy-Schwarz exp-overflow bound shared with the fast path: below it
#: the kernel exponentiates raw scores (no row-max pass).
_PLAIN_EXP_BOUND = 60.0

#: Post-stabilisation clamp applied before ``exp``: entries this far below
#: the row max contribute < 1e-26 relative mass (indistinguishable from 0
#: in float32) but raw ``exp`` of the masked entries' ``-1e38`` would take
#: numpy's underflow slow path -- ~6x the cost of the fast path.  The
#: clamp value must stay well above ``log(FLT_MIN)`` (~-87.3): masked
#: weights of ``exp(-60)`` (~9e-27) keep every probability-times-value
#: product in the PV GEMM normal, where a tighter clamp would flood the
#: GEMM with denormal products and trigger a per-FMA microcode assist
#: that costs more than the masking it replaced.
_EXP_CLAMP = np.float32(-60.0)


@dataclass(frozen=True)
class PackedItem:
    """One request's share of a packed dispatch.

    ``q`` is this request's chunk queries ``(H, S_q, d)``; ``k``/``v``
    are its full KV so far ``(H_kv, S_k, d)``; ``mask`` its per-request
    :class:`~repro.attention.masks.BlockMask` (ragged lengths across the
    batch are the norm -- packing aligns *rows*, not geometries).

    ``k_norm_sq`` optionally carries ``max_i ||k_i||^2`` computed
    incrementally by the caller (the serving engine tracks it per
    (request, layer) as chunks append); row norms are independent, so the
    incremental max is bitwise equal to the full reduction the fast path
    performs per call.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    mask: BlockMask
    scale: float | None = None
    k_norm_sq: float | None = None
    tag: object = None


@dataclass(frozen=True)
class PackedAttentionResult:
    """Result of one packed dispatch.

    ``results[i]`` is item *i*'s :class:`BlockSparseResult` -- output
    rows unpacked exactly, per-head visited-tile counts identical to a
    per-request fast call (the engine's roofline billing depends on
    this).  ``stats`` is the single merged dispatch record.
    """

    results: list[BlockSparseResult]
    cu_seqlens: np.ndarray
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PackedDecodeItem:
    """One decoding request's share of a packed decode dispatch.

    ``q`` is the request's single rotated query row ``(H, 1, d)``; ``k``/
    ``v`` are its full cached KV so far ``(H_kv, S_k, d)``, including the
    entry this step appended.  Cache lengths are ragged across the batch
    (``cu_seqlens`` in the result records the per-request KV offsets).
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    scale: float | None = None
    tag: object = None


@dataclass(frozen=True)
class PackedDecodeResult:
    """Result of one packed decode dispatch.

    ``outputs[i]`` is item *i*'s attention output ``(H, 1, d)``.  It is
    **batch-invariant**: bitwise the same whichever other items share the
    dispatch and in whatever order (a request's tokens never depend on who
    it was co-scheduled with -- the serving parity gate and perfbench's
    same-wave digest check rest on this), and within 2e-5 of
    ``dense_attention(q, k, v, causal=False, scale=scale)``.  ``probs[i]``
    (when requested) carries the ``(H, 1, S_k)`` attention probabilities
    for heavy-hitter mass recording, under the same contract.  ``stats``
    is the single merged dispatch record (``dispatches`` is always 1).
    """

    outputs: list[np.ndarray]
    probs: list[np.ndarray] | None
    cu_seqlens: np.ndarray
    stats: dict = field(default_factory=dict)


def packed_decode_attention(
    items: list[PackedDecodeItem] | tuple[PackedDecodeItem, ...],
    *,
    return_probs: bool = False,
) -> PackedDecodeResult:
    """Execute every decoding request's step as one packed dispatch.

    The decode mirror of :func:`packed_block_sparse_attention`: all
    co-scheduled requests' single-token attention calls -- one query row
    each against a ragged-length KV prefix -- run under one validation /
    geometry pass, then each item goes through
    :func:`~repro.attention.utils.decode_row_attention` serially in the
    caller's thread (a decode item is ~10 us of arithmetic; fanning items
    out over Python threads measured 1.09x on two cores and cost more in
    executor set-up than it returned).

    All items must share ``(H, H_kv, d)`` (one model); KV lengths may be
    ragged.  ``return_probs=True`` additionally returns each item's
    attention probabilities (the H2O heavy-hitter statistic feed).
    """
    outputs: list[np.ndarray] = []
    probs_out: list[np.ndarray] | None = [] if return_probs else None
    cu = np.zeros(len(items) + 1, dtype=np.int64)
    s_k_max = h = h_kv = d = 0
    if items:
        h, h_kv, _, _, d = validate_qkv(items[0].q, items[0].k, items[0].v)
    for i, it in enumerate(items):
        q, k, v = it.q, it.k, it.v
        if q.shape != (h, 1, d):
            raise ShapeError(
                f"decode item {i}: q shape {q.shape} != ({h}, 1, {d})"
            )
        s_k = k.shape[1]
        if k.shape != (h_kv, s_k, d) or v.shape != k.shape or s_k < 1:
            raise ShapeError(
                f"decode item {i}: k/v shapes {k.shape}/{v.shape} "
                f"incompatible with ({h_kv}, S_k>=1, {d})"
            )
        scale = np.float32(it.scale if it.scale is not None else 1.0 / np.sqrt(d))
        out, probs = decode_row_attention(
            q, k, v, scale, return_probs=return_probs
        )
        outputs.append(out)
        if probs_out is not None:
            probs_out.append(probs)
        cu[i + 1] = cu[i] + s_k
        s_k_max = max(s_k_max, s_k)

    stats = {
        "dispatches": 1,
        "decode_requests": len(items),
        "decode_rows": len(items),
        "kv_tokens": int(cu[-1]),
        "s_k_max": int(s_k_max),
        "head_groups": h_kv,
        "mode": "packed_decode",
    }
    return PackedDecodeResult(
        outputs=outputs, probs=probs_out, cu_seqlens=cu, stats=stats
    )


def _row_index(row: np.ndarray, b: int) -> tuple:
    """Coalesced-run geometry for one active-tile row, cacheable by bytes.

    Returns ``(runs, j0, j1, active_full)`` where ``runs`` are half-open
    block ranges, ``[j0, j1)`` the covering block span, and
    ``active_full`` the per-column activity over that span before any
    per-item ``s_k``/causal clamp.
    """
    idx = np.flatnonzero(row)
    if idx.size == 0:
        return (), 0, 0, None
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [idx.size - 1]))]
    runs = tuple((int(a), int(e) + 1) for a, e in zip(starts, ends))
    j0, j1 = runs[0][0], runs[-1][1]
    active_full = np.repeat(row[j0:j1], b)
    return runs, j0, j1, active_full


def _group_index(patterns: np.ndarray) -> list[tuple[np.ndarray, bytes, np.ndarray]]:
    """Head-pattern groups of ``patterns``; one entry per unique row.

    Same grouping as :func:`repro.attention.fastpath.head_pattern_groups`
    (bit-packed signatures, insertion order), returning the row bytes so
    per-row geometry can be shared across the batch.
    """
    packed = np.packbits(patterns, axis=1)
    sigs: dict[bytes, list[int]] = {}
    for hh in range(patterns.shape[0]):
        sigs.setdefault(packed[hh].tobytes(), []).append(hh)
    return [
        (np.asarray(hs, dtype=np.int64), patterns[hs[0]].tobytes(), patterns[hs[0]])
        for hs in sigs.values()
    ]


def packed_block_sparse_attention(
    items: list[PackedItem] | tuple[PackedItem, ...],
    *,
    workspace: KernelWorkspace | None = None,
) -> PackedAttentionResult:
    """Execute every item's block-sparse attention as one packed dispatch.

    All items must share ``(H, H_kv, d)`` (one model); sequence lengths
    may be ragged.  Items execute serially in the caller's thread, and
    each item's output and visited-tile counts are **batch-invariant**:
    bitwise the same alone or inside any permutation of a batch (the
    serving engine's per-request path is a batch of one).  Visited-tile
    counts and achieved densities are bitwise identical to one
    ``fast_block_sparse_attention`` call per item; outputs agree with it
    to float32 summation tolerance (gated at 2e-5 by the serving
    benchmark).  The dispatch-level ``stats`` dict reports the
    packed-layout counters (``dispatches`` is always 1).
    """
    if not items:
        return PackedAttentionResult(
            results=[],
            cu_seqlens=np.zeros(1, dtype=np.int64),
            stats={"dispatches": 1, "packed_requests": 0, "packed_rows": 0,
                   "gemm_calls": 0, "runs_coalesced": 0, "head_groups": 0,
                   "pattern_hits": 0, "tiles_visited": 0},
        )

    ws = workspace if workspace is not None else KernelWorkspace()

    # ---- one validation + geometry pass over the batch -----------------
    h, h_kv, _, _, d = validate_qkv(items[0].q, items[0].k, items[0].v)
    geom = []  # per item: (s_q, s_k, b, offset, nq, scale)
    cu = np.zeros(len(items) + 1, dtype=np.int64)
    for i, it in enumerate(items):
        hi, hkvi, s_q, s_k, di = validate_qkv(it.q, it.k, it.v)
        if (hi, hkvi, di) != (h, h_kv, d):
            raise ShapeError(
                f"packed items must share (H, H_kv, d); item {i} has "
                f"({hi}, {hkvi}, {di}) != ({h}, {h_kv}, {d})"
            )
        if it.mask.blocks.shape[0] != h:
            raise MaskError(
                f"item {i}: mask has {it.mask.blocks.shape[0]} heads, tensors have {h}"
            )
        if it.mask.s_q != s_q or it.mask.s_k != s_k:
            raise MaskError(
                f"item {i}: mask geometry ({it.mask.s_q}, {it.mask.s_k}) "
                f"!= tensors ({s_q}, {s_k})"
            )
        scale = np.float32(
            it.scale if it.scale is not None else 1.0 / np.sqrt(d)
        )
        geom.append((s_q, s_k, it.mask.block_size, s_k - s_q, it.mask.blocks.shape[1], scale))
        cu[i + 1] = cu[i] + s_q
    total_rows = int(cu[-1])
    n_rep = h // h_kv

    # ---- packed query workspace (cu-seqlen layout) ---------------------
    # One grow-only buffer holds every request's scale-folded queries;
    # item i owns rows [cu[i], cu[i+1]).  The output buffer shares the
    # layout so unpacking is a zero-copy row slice per request.
    qp = ws.take("packed_q", (h, max(total_rows, 1), d))
    out = np.zeros((h, total_rows, d), dtype=np.float32)
    plain = []
    kf_all, vf_all = [], []
    for i, it in enumerate(items):
        s_q, s_k, _, _, _, scale = geom[i]
        qf = qp[:, cu[i]:cu[i + 1]]
        np.multiply(it.q.astype(np.float32, copy=False), scale, out=qf)
        kf = it.k.astype(np.float32, copy=False)
        vf = it.v.astype(np.float32, copy=False)
        kf_all.append(kf)
        vf_all.append(vf)
        # Same stabilisation bound as the fast path, per item (bitwise
        # parity requires the per-item decision, not a batch-global one).
        q_norm = float(np.sqrt(np.einsum("hsd,hsd->hs", qf, qf).max())) if s_q else 0.0
        if it.k_norm_sq is not None:
            k_norm = float(np.sqrt(it.k_norm_sq))
        else:
            k_norm = float(np.sqrt(np.einsum("hsd,hsd->hs", kf, kf).max())) if s_k else 0.0
        plain.append(q_norm * k_norm < _PLAIN_EXP_BOUND)

    head_kv = np.arange(h) // n_rep

    # ---- per-item visited accounting (identical to the fast path) ------
    visited_all, kend_all = [], []
    for i, it in enumerate(items):
        s_q, s_k, b, offset, nq, _ = geom[i]
        nk = it.mask.blocks.shape[2]
        q_last = np.minimum((np.arange(nq) + 1) * b, s_q) - 1 + offset
        k_end_block = np.minimum(nk, q_last // b + 1)
        reachable = np.arange(nk)[None, None, :] < k_end_block[None, :, None]
        visited_all.append(
            (it.mask.blocks & reachable).sum(axis=(1, 2)).astype(np.int64)
        )
        kend_all.append(k_end_block)

    # ---- cross-batch signature sharing ---------------------------------
    # Grouping and run-coalescing memoised on (pattern bytes, geometry):
    # identical plans from co-scheduled requests pay for the indexing once
    # per batch step.
    group_cache: dict[tuple, list] = {}
    row_cache: dict[tuple, tuple] = {}
    counters = {"runs": 0, "groups": 0, "gemms": 0, "hits": 0}

    def exec_item(i: int) -> None:
        """One item of the packed schedule: every chunk row at once.

        Per head-pattern group the whole chunk executes as a single
        slab -- all ``S_q`` rows against the union of the group's visited
        columns, with one precomputed dead mask carrying both the block
        pattern and causality.  A handful of tall GEMMs per item replaces
        the per-(q-block, group, KV-segment) small-GEMM schedule of the
        per-request fast path; that fragmentation is exactly the serving
        overhead this module exists to remove.
        """
        it = items[i]
        s_q, s_k, b, offset, nq, _ = geom[i]
        blocks = it.mask.blocks
        nk = blocks.shape[2]
        # Causal clamp per q-block, identical to the visited accounting:
        # block j is live for q-block qi only when reachable from its rows.
        reach = np.arange(nk)[None, :] < kend_all[i][:, None]
        eff = blocks & reach[None]
        if not eff.any():
            return
        gkey = (eff.tobytes(), nq, nk)
        groups = group_cache.get(gkey)
        if groups is None:
            groups = _group_index(eff.reshape(h, nq * nk))
            group_cache[gkey] = groups
        else:
            counters["hits"] += 1
        counters["groups"] += len(groups)

        r0 = int(cu[i])
        q_tile = qp[:, r0:r0 + s_q]
        kf, vf = kf_all[i], vf_all[i]
        plain_exp = plain[i]
        rows_abs = np.arange(s_q, dtype=np.int64) + offset

        for heads, rkey, row in groups:
            pat = row.reshape(nq, nk)
            union = pat.any(axis=0)
            if not union.any():
                continue
            g = heads.size
            idx = row_cache.get((rkey, nq, nk))
            if idx is None:
                idx = _row_index(union, b)
                row_cache[(rkey, nq, nk)] = idx
            else:
                counters["hits"] += 1
            runs, j0, j1, active_full = idx
            if not runs:
                continue
            counters["runs"] += len(runs)
            span0 = j0 * b
            span1 = min(j1 * b, s_k)
            n_span = span1 - span0
            if n_span <= 0:
                continue
            active = active_full[:n_span]
            n_active = int(np.count_nonzero(active))
            use_span = (
                n_active >= n_span or n_active >= _SPAN_COVERAGE * n_span
            )
            if use_span:
                cols = np.arange(span0, span1, dtype=np.int64)
                contiguous = True
            else:
                cols = span0 + np.flatnonzero(active)
                contiguous = False
            n = cols.size
            # One dead mask for the whole slab: a column is live for a
            # row iff its block is set in the row's q-block pattern row
            # AND it is causally visible.  Rows within a q-block share a
            # pattern row, so the block part expands by repeat instead of
            # a full-slab gather.
            act = np.repeat(pat[:, cols // b], b, axis=0)[:s_q]
            dead = np.greater(
                cols[None, :], rows_abs[:, None],
                out=ws.take("dead", (s_q, n), dtype=np.bool_),
            )
            np.logical_not(act, out=act)
            np.logical_or(dead, act, out=dead)
            any_dead = bool(dead.any())
            # Masking runs as dense arithmetic, never ``where=`` writes
            # (a predicated copy over the slab costs ~5x a slab GEMM):
            # the plain path multiplies weights by a {0,1} float mask for
            # exact zeros; the stabilised path adds a -1e38 bias so the
            # row max sees only live scores, then clamps before ``exp``
            # (see _EXP_CLAMP) so masked entries become ~2e-35 weights --
            # below float32 resolution of any live row sum.
            if any_dead:
                if plain_exp:
                    live = ws.take("live", (s_q, n))
                    np.subtract(np.float32(1.0), dead, out=live)
                    bias = None
                else:
                    bias = ws.take("bias", (s_q, n))
                    np.multiply(dead, NEG_INF, out=bias)
                    live = None
            else:
                live = bias = None

            def run_slab(sub, k_slab, v_slab, batched: bool) -> None:
                """GEMM -> masked softmax -> GEMM for heads ``sub``.

                ``batched`` stacks all KV heads of a full-width GQA group
                into one 3D matmul over contiguous views; otherwise the
                slab is 2D (one shared KV head, tall GEMM) or 3D gathered.
                """
                gs = h if batched else sub.size
                if batched:
                    # (H_kv, n_rep*S_q, *) layout: head-major rows match
                    # the tall-GEMM row order of the per-segment path.
                    q2 = ws.take("q2", (h, s_q, d))
                    np.copyto(q2, q_tile)
                    q3 = q2.reshape(h_kv, n_rep * s_q, d)
                    s = ws.take("scores", (h_kv, n_rep * s_q, n))
                    np.matmul(q3, k_slab.transpose(0, 2, 1), out=s)
                elif k_slab.ndim == 2:
                    q_group = q_tile if gs == h else q_tile[sub]
                    q2 = ws.take("q2", (gs, s_q, d))
                    np.copyto(q2, q_group)
                    s = ws.take("scores", (gs, s_q, n))
                    np.matmul(
                        q2.reshape(gs * s_q, d),
                        k_slab.T,
                        out=s.reshape(gs * s_q, n),
                    )
                else:
                    q_group = q_tile[sub]
                    s = ws.take("scores", (gs, s_q, n))
                    np.matmul(q_group, k_slab.transpose(0, 2, 1), out=s)

                if plain_exp:
                    # Lean masking: exponentiate raw scores (bounded by
                    # the Cauchy-Schwarz check), then zero masked entries
                    # with a {0,1} multiply -- exact 0.0, one fast pass.
                    np.exp(s, out=s)
                    if any_dead:
                        if batched:
                            sd = s.reshape(h_kv, n_rep, s_q, n)
                            sd *= live[None, None]
                        else:
                            s *= live[None]
                else:
                    # Stabilised path: additive -1e38 bias (dominates any
                    # live score, so the row max is the exact live max),
                    # then clamp into exp's fast range -- masked entries
                    # weigh ~2e-35, negligible against any live row sum.
                    if any_dead:
                        if batched:
                            sd = s.reshape(h_kv, n_rep, s_q, n)
                            sd += bias[None, None]
                        else:
                            s += bias[None]
                    m = np.max(s, axis=-1, out=ws.take("m", s.shape[:-1]))
                    m_base = np.where(m <= NEG_INF / 2, 0.0, m)
                    s -= m_base[..., None]
                    np.maximum(s, _EXP_CLAMP, out=s)
                    np.exp(s, out=s)

                l = np.sum(s, axis=-1, out=ws.take("l", s.shape[:-1]))
                pv = ws.take("pv", (*s.shape[:-1], d))
                if k_slab.ndim == 2:
                    np.matmul(
                        s.reshape(gs * s_q, n),
                        v_slab,
                        out=pv.reshape(gs * s_q, d),
                    )
                else:
                    np.matmul(s, v_slab, out=pv)
                counters["gemms"] += 2
                if float(l.min()) == 0.0:
                    np.divide(
                        pv, np.where(l == 0.0, 1.0, l)[..., None], out=pv
                    )
                else:
                    np.divide(pv, l[..., None], out=pv)
                if batched:
                    out[:, r0:r0 + s_q] = pv.reshape(h, s_q, d)
                else:
                    out[sub, r0:r0 + s_q] = pv

            if g == h and n_rep > 1 and contiguous:
                # Full-head GQA group over a contiguous span: one batched
                # GEMM against (H_kv, n, d) views -- no per-KV-head loop.
                run_slab(heads, kf[:, span0:span1], vf[:, span0:span1], True)
                continue
            if n_rep == 1 and g > 1:
                if contiguous:
                    if g == h:
                        k_slab = kf[:, span0:span1]
                        v_slab = vf[:, span0:span1]
                    else:
                        kv_ids = head_kv[heads]
                        k_slab = kf[kv_ids, span0:span1]
                        v_slab = vf[kv_ids, span0:span1]
                else:
                    kv_ids = head_kv[heads]
                    sel = (kv_ids[:, None], cols[None, :])
                    k_slab = kf[sel]
                    v_slab = vf[sel]
                run_slab(heads, k_slab, v_slab, False)
                continue
            kv_ids = head_kv[heads]
            seg_starts = np.flatnonzero(np.diff(kv_ids)) + 1
            for seg in np.split(np.arange(g), seg_starts):
                kv0 = int(kv_ids[seg[0]])
                sub = heads[seg]
                if contiguous:
                    k_slab = kf[kv0, span0:span1]
                    v_slab = vf[kv0, span0:span1]
                else:
                    k_slab = np.take(
                        kf[kv0], cols, axis=0, out=ws.take("k_slab", (n, d))
                    )
                    v_slab = np.take(
                        vf[kv0], cols, axis=0, out=ws.take("v_slab", (n, d))
                    )
                run_slab(sub, k_slab, v_slab, False)

    for i in range(len(items)):
        exec_item(i)

    stats = {
        "dispatches": 1,
        "packed_requests": len(items),
        "packed_rows": total_rows,
        "gemm_calls": int(counters["gemms"]),
        "runs_coalesced": int(counters["runs"]),
        "head_groups": int(counters["groups"]),
        "unique_patterns": len(group_cache),
        "pattern_hits": int(counters["hits"]),
        "tiles_visited": int(sum(int(vv.sum()) for vv in visited_all)),
        "mode": "packed",
    }
    results = []
    for i, it in enumerate(items):
        s_q, s_k, b, _, _, _ = geom[i]
        results.append(
            BlockSparseResult(
                output=np.ascontiguousarray(out[:, cu[i]:cu[i + 1]]).astype(
                    it.q.dtype, copy=False
                ),
                visited_blocks=visited_all[i],
                total_causal_blocks=_total_causal_blocks(s_q, s_k, b),
                stats=None,
            )
        )
    return PackedAttentionResult(results=results, cu_seqlens=cu, stats=stats)
