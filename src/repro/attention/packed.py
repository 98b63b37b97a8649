"""Packed cross-request execution of SampleAttention's structured mask.

This is the one kernel that executes a
:class:`~repro.core.plan.SparsePlan`: the library operator
:func:`~repro.core.sample_attention` runs it as a batch of one, and at each
engine batch step the co-scheduled prefill chunks execute as **one
dispatch** -- one validation pass over the batch (plan geometry and every
band's mask term), then every item through the same two-part kernel.
When at least two items clear a work floor (``_ITEM_UNIT_WORK``) the items
are units of the process-wide :mod:`repro.pool`, largest first, each
running its own dense q-blocks inline; otherwise the items run one after
the other and the dense rows' 64-row q-blocks are the pool's units (a
lone request's chunk, ``flash_attention``).  Every unit's scratch is its
thread's grow-only :class:`~repro.attention.utils.KernelWorkspace`; no
caller passes one.  Everything runs inline on one CPU, and every output
and count is bitwise the same either way.
The kernel attends at the *plan's own granularity* -- the paper's gathered ``I_KV``
columns (and AnchorAttention's "stripe granularity") -- so its cost follows
what the planner kept, not how many aligned 64-wide tiles the scattered
stripe columns happen to touch:

* **Stripe part** -- per head, the stripe ∪ sink columns lying left of the
  rows' windows are gathered once (``np.take``) into contiguous
  ``K[I_KV]`` / ``V[I_KV]`` scratch and scored one 256-row block at a time
  by a ``(rows x |I_KV|)`` GEMM over the columns left of the block's last
  window edge, so a one-shot ``S_q = S_k`` call never scores the acausal
  half of the rectangle and its scratch does not grow with ``S_q``.  Row
  ``i`` (absolute position ``p_i``) owns stripe column ``j`` iff ``j <=
  p_i - window`` and ``p_i - j`` lies in no diagonal band, so only the few
  columns between the block's first and last window edge -- and those a
  band crosses -- need a mask.
* **Band part** -- the local window ``(p_i - window, p_i]`` as one batched
  GEMM per 64-row q-block over all heads of every KV group, ``(H_kv,
  n_rep * 64, d) @ K[:, span]^T`` against a *view* of the contiguous key
  span, under a single relative window/causal mask shared by every head,
  q-block and item of that window width.  Every further distance interval
  ``[d_lo, d_hi)`` of the plan (``extras["bands"]``, the slash half of the
  vertical-slash providers) is one more such GEMM on a span shifted left
  by ``d_lo``, under the relative mask of width ``d_hi - d_lo``.  Dense
  last rows tile their causal prefix with bands of one fixed width
  (``_DENSE_SPAN``): scratch and mask do not grow with ``S_k``, and an
  all-dense item (:meth:`PackedItem.dense`) is ``flash_attention``.
* **One softmax** -- every part joins the running accumulators under the
  joint row max and one normaliser; the PV GEMMs are summed.

Masking is dense arithmetic (a ``{0, NEG_INF}`` bias before the row max,
then a clamp before ``exp``), never predicated writes.

An item is what the kernel executes and nothing more: window, bands,
stripe/sink columns and dense last rows.  The kernel reports the score
elements it computed; a plan's tile footprint, which the serving engine
bills, is the plan's own
(:meth:`~repro.core.plan.SparsePlan.to_block_mask`).

Entry point: :func:`packed_block_sparse_attention` over a list of
:class:`PackedItem` (usually :meth:`PackedItem.from_plan`); the
:class:`PackedAttentionResult` carries one :class:`PackedPrefillResult`
per item plus the merged dispatch-level stats record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import pool
from ..errors import MaskError, ShapeError
from .masks import normalise_bands, normalise_indices
from .utils import (
    _EXP_CLAMP,
    NEG_INF,
    _thread_workspace,
    decode_row_attention,
    total_causal_elements,
    validate_qkv,
)

__all__ = [
    "PackedItem",
    "PackedPrefillResult",
    "PackedAttentionResult",
    "PackedDecodeItem",
    "PackedDecodeResult",
    "packed_block_sparse_attention",
    "packed_decode_attention",
]

#: Query rows per band GEMM: each q-block reads ``window + _BAND_ROWS - 1``
#: key columns of which a row uses ``window``.
_BAND_ROWS = 64

#: Query rows per stripe GEMM: a row block scores only the gathered columns
#: left of its last row's window edge, so the stripe scratch is bounded by
#: ``_STRIPE_ROWS x |I_KV|`` whatever ``S_q`` is.  The engine's prefill
#: chunks (<= 256 rows) are one block.
_STRIPE_ROWS = 256

#: Width ``W`` of the distance spans ``[0, W)``, ``[W, 2W)``, ... a dense
#: row's causal prefix is tiled with, each one band GEMM: a dense q-block's
#: scratch is ``_BAND_ROWS x (W + _BAND_ROWS - 1)`` scores whatever ``S_k``.
_DENSE_SPAN = 1024

#: Fewest score-rectangle entries ``S_q x S_k`` a prefill item spans to be
#: a pool unit of its dispatch.  Measured on a 2-CPU host (BLAS on one
#: thread) as two captured glm-mini items on two threads against one:
#: single-chunk prompts of 132-252 tokens (<= 63504 entries) x0.98-1.03,
#: their small-array work holds the GIL; 256-row chunks x0.87 against 256
#: keys and x0.59-0.79 from 512 keys up.  Twice the largest of the former.
_ITEM_UNIT_WORK = 256 * 512

#: Fewest cached keys a decode item holds to be a pool unit of its dispatch.
#: Measured like ``_ITEM_UNIT_WORK``, two glm-mini decode items over caches
#: cycled cold: 768 keys x0.87 (faster in 20 of 30 runs), 1024 keys x0.74
#: (29 of 30), 1640 keys x0.71; below that a unit is shorter than handing
#: it to another thread.
_DECODE_UNIT_KEYS = 1024


def _items_on_the_pool(fn, sizes, floor) -> list:
    """``[fn(i) for i in range(len(sizes))]``, the items as
    :mod:`repro.pool` units, largest first, when at least two of their
    ``sizes`` reach ``floor``; inline otherwise.  Results come back in
    item order whichever thread ran them, in whatever order."""
    if sum(size >= floor for size in sizes) < 2:
        return [fn(i) for i in range(len(sizes))]
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    results = [None] * len(sizes)
    for i, result in zip(order, pool.run(fn, order)):
        results[i] = result
    return results


@dataclass(frozen=True)
class PackedItem:
    """One request's share of a packed dispatch.

    ``q`` is this request's chunk queries ``(H, S_q, d)``, right-aligned
    against its full KV so far ``k``/``v`` ``(H_kv, S_k, d)`` (ragged
    lengths across the batch are the norm).  What to execute is the
    plan's own geometry: ``window`` (local band width in tokens),
    ``kv_indices`` (per-head sorted stripe columns ``I_KV``),
    ``sink_tokens`` (leading columns every head keeps),
    ``dense_last_rows`` (trailing rows that attend densely) and ``bands``
    (extra diagonal distance intervals ``(d_lo, d_hi)`` every head keeps,
    the plan's ``extras["bands"]``).
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    window: int
    kv_indices: list[np.ndarray]
    sink_tokens: int = 0
    dense_last_rows: int = 0
    bands: Sequence[tuple[int, int]] = ()
    scale: float | None = None

    @classmethod
    def from_plan(cls, q, k, v, plan, *, scale=None) -> "PackedItem":
        """The item executing ``plan`` (a
        :class:`~repro.core.plan.SparsePlan`) on ``q``/``k``/``v``; a plan
        built for another ``(S_q, S_k)`` is a :class:`MaskError`."""
        if (plan.s_q, plan.s_k) != (q.shape[1], k.shape[1]):
            raise MaskError(
                f"plan geometry ({plan.s_q}, {plan.s_k}) != tensors "
                f"({q.shape[1]}, {k.shape[1]})"
            )
        return cls(
            q=q,
            k=k,
            v=v,
            window=plan.window,
            kv_indices=plan.kv_indices,
            sink_tokens=plan.config.sink_tokens,
            dense_last_rows=plan.config.dense_last_rows,
            bands=plan.extras.get("bands") or (),
            scale=scale,
        )

    @classmethod
    def dense(cls, q, k, v, *, scale=None) -> "PackedItem":
        """The item that is dense causal attention: no stripes, no sinks,
        every row a dense last row.  Its geometry is read off the tensors,
        so it is valid whenever they are."""
        h, _, s_q, _, _ = validate_qkv(q, k, v)
        return cls(
            q=q,
            k=k,
            v=v,
            window=1,
            kv_indices=[np.empty(0, dtype=np.int64)] * h,
            dense_last_rows=s_q,
            scale=scale,
        )


@dataclass(frozen=True)
class PackedPrefillResult:
    """One item's result of a packed prefill dispatch.

    ``computed_elements`` is the ``(H,)`` count of score entries the
    kernel kept live -- equal to the plan's
    :meth:`~repro.core.plan.SparsePlan.element_counts`.
    """

    output: np.ndarray
    computed_elements: np.ndarray
    total_causal_elements: int

    @property
    def element_density(self) -> float:
        """Mean computed-element density relative to dense causal."""
        if self.total_causal_elements == 0:
            return 0.0
        return float(self.computed_elements.mean() / self.total_causal_elements)


@dataclass(frozen=True)
class PackedAttentionResult:
    """Result of one packed dispatch.

    ``results[i]`` is item *i*'s :class:`PackedPrefillResult`; ``stats``
    is the single merged dispatch record.
    """

    results: list[PackedPrefillResult]
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PackedDecodeItem:
    """One decoding request's share of a packed decode dispatch.

    ``q`` is the request's single rotated query row ``(H, 1, d)``; ``k``/
    ``v`` are its full cached KV so far ``(H_kv, S_k, d)``, including the
    entry this step appended.  Cache lengths are ragged across the batch.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    scale: float | None = None


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
    is the single merged dispatch record.
    """

    outputs: list[np.ndarray]
    probs: list[np.ndarray] | None
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
    :func:`~repro.attention.utils.decode_row_attention`.  When at least
    two items cache ``_DECODE_UNIT_KEYS`` or more keys, the items are
    :mod:`repro.pool` units, longest cache first (two 1640-key items:
    x0.71 on two cores); shorter caches run serially in the caller's
    thread, where a unit costs less than handing it to another thread.
    An item's result is a function of the item alone, so both ways give
    the same bits.

    All items must share ``(H, H_kv, d)`` (one model); KV lengths may be
    ragged.  ``return_probs=True`` additionally returns each item's
    attention probabilities (the H2O heavy-hitter statistic feed).
    """
    scales = []
    h = h_kv = d = 0
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
        scales.append(
            np.float32(it.scale if it.scale is not None else 1.0 / np.sqrt(d))
        )

    def attend(i):
        it = items[i]
        return decode_row_attention(
            it.q, it.k, it.v, scales[i], return_probs=return_probs
        )

    lengths = [it.k.shape[1] for it in items]
    executed = _items_on_the_pool(attend, lengths, _DECODE_UNIT_KEYS)
    outputs = [out for out, _ in executed]
    probs_out = [probs for _, probs in executed] if return_probs else None
    stats = {"decode_requests": len(items), "kv_tokens": sum(lengths)}
    return PackedDecodeResult(outputs=outputs, probs=probs_out, stats=stats)


def _mask_term(dead: np.ndarray) -> np.ndarray:
    """A boolean dead mask as the ``{0, NEG_INF}`` float32 bias
    :func:`_to_weights` adds before the row max.  Masking is dense
    arithmetic, never ``where=`` writes (a predicated copy over a score
    slab costs ~5x the slab's GEMM)."""
    return np.multiply(dead, NEG_INF, dtype=np.float32)


def _to_weights(s, masked, term, floor=None):
    """Scores ``s`` -> unnormalised softmax weights, in place.

    ``masked`` is the view of ``s`` that ``term`` (see :func:`_mask_term`,
    ``None`` when nothing is masked) broadcasts against.  Returns the
    per-row reference the weights are relative to: the masked row max,
    raised to ``floor`` where given.  The clamp before ``exp``
    (:data:`~repro.attention.utils._EXP_CLAMP`, shared with the decode
    kernel and stage-1 sampling) makes masked entries weigh ~1e-26 of
    their row's largest weight instead of taking ``exp``'s underflow path.
    Every row must hold at least one live entry.
    """
    if term is not None:
        masked += term
    m = s.max(axis=-1)
    if floor is not None:
        np.maximum(m, floor, out=m)
    s -= m[..., None]
    np.maximum(s, _EXP_CLAMP, out=s)
    np.exp(s, out=s)
    return m


def _window_dead(window: int) -> np.ndarray:
    """A band's relative dead mask, one for every head and q-block.

    Row ``r`` of a q-block whose first row sits at absolute position
    ``p0`` sees relative column ``c`` (absolute ``p0 - window + 1 + c``)
    iff ``r <= c < r + window``: left of that is outside the window, right
    of it is the future.  A diagonal band ``[d_lo, d_hi)`` is the window of
    width ``d_hi - d_lo`` on a span shifted left by ``d_lo``.
    """
    r = np.arange(_BAND_ROWS)[:, None]
    c = np.arange(window + _BAND_ROWS - 1)[None, :]
    return (c < r) | (c >= r + window)


@functools.lru_cache(maxsize=None)
def _dense_term(span: int) -> np.ndarray:
    """The mask term of a dense row's key span (width ``_DENSE_SPAN``),
    read by every dense q-block of every item."""
    term = _mask_term(_window_dead(span))
    term.flags.writeable = False
    return term


def _stripe_dead(pos, cols, window: int, extras: list) -> np.ndarray:
    """``(rows, columns)`` stripe entries that are not the stripe part's to
    score: rows at positions ``pos`` see columns ``cols`` at a distance
    inside the window, or inside an extra band (the band part owns them)."""
    dead = (cols + window)[None, :] > pos[:, None]
    if extras:
        dist = pos[:, None] - cols[None, :]
        for lo, hi in extras:
            dead |= (dist >= lo) & (dist < hi)
    return dead


def _band_terms(widths) -> dict:
    """``width ->`` mask term of every band width a dispatch's items use.
    Built before any item runs and only read after, so items on different
    threads share it."""
    return {
        w: _dense_term(w) if w == _DENSE_SPAN else _mask_term(_window_dead(w))
        for w in widths
    }


def _execute_item(it: PackedItem, geometry, terms: dict):
    """One item through the stripe part and the band part.

    ``geometry`` is the item's ``(scale, stripes, window, extras, s_nd)``
    from the dispatch's validation pass: its stripe ∪ sink columns per
    head, its window and extra diagonal bands as disjoint distance
    intervals clipped to the prefix, and the rows ``[0, s_nd)`` that
    execute the plan.  ``terms`` holds every band width's mask term.
    Returns ``(output, computed_elements, gemm_calls)``; everything is a
    function of the item alone (scratch is fully written before it is
    read), which is what makes the dispatch batch-invariant.  The dense
    rows' q-blocks run on :func:`repro.pool.run` (inline when this item is
    itself a pool unit); the counts they return are summed here.  Scratch
    is the running thread's workspace, the item's and each q-block's.
    """
    scale, stripes, window, extras, s_nd = geometry
    ws = _thread_workspace()
    h, s_q, d = it.q.shape
    h_kv, s_k, _ = it.k.shape
    n_rep = h // h_kv
    offset = s_k - s_q

    kf = it.k.astype(np.float32, copy=False)
    vf = it.v.astype(np.float32, copy=False)
    qf = ws.take("q", (h, s_q, d))
    np.multiply(it.q.astype(np.float32, copy=False), scale, out=qf)

    # The stripe part accumulates straight into the output and ``l``; the
    # band part then joins each row block under the joint row max ``m``.
    out = np.zeros((h, s_q, d), dtype=np.float32)
    l = ws.take("l", (h, s_q))
    l.fill(0.0)
    m = ws.take("m", (h, s_q))
    m.fill(NEG_INF)
    elements = np.zeros(h, dtype=np.int64)
    gemms = 0

    # ---- stripe part: per head, gathered I_KV columns left of the window.
    # Row i owns stripe column j iff j <= p_i - window (p_i = offset + i)
    # and p_i - j lies in no extra band.
    edge = offset - window  # p_0 - window: columns <= edge belong to every row
    pos = np.arange(offset, offset + s_nd, dtype=np.int64)
    for hh in range(h):
        cols = stripes[hh]
        cols = cols[: np.searchsorted(cols, edge + s_nd - 1, side="right")]
        if cols.size == 0:
            continue
        kv = hh // n_rep
        k_cols = np.take(kf[kv], cols, axis=0, out=ws.take("k_cols", (cols.size, d)))
        v_cols = np.take(vf[kv], cols, axis=0, out=ws.take("v_cols", (cols.size, d)))
        for b0 in range(0, s_nd, _STRIPE_ROWS):
            b1 = min(b0 + _STRIPE_ROWS, s_nd)
            # Columns right of the block's last window edge belong to none
            # of its rows (the last block reaches every gathered column),
            # and rows before i0 own none of the columns (first chunk: the
            # window still covers the whole prefix).
            n = cols.size
            if b1 < s_nd:
                n = int(np.searchsorted(cols, edge + b1 - 1, side="right"))
            if n == 0:
                continue
            i0 = max(b0, int(cols[0]) - edge)
            # Columns [0, c0) are live for every row computed: left of row
            # i0's window edge and further than the farthest band reaches.
            c0 = int(np.searchsorted(cols[:n], edge + i0, side="right"))
            if extras:
                c0 = min(c0, int(np.searchsorted(
                    cols[:n], offset + i0 - extras[-1][1], side="right")))
            s = ws.take("s_cols", (b1 - i0, n))
            np.matmul(qf[hh, i0:b1], k_cols[:n].T, out=s)
            term = None
            elements[hh] += s.size
            if c0 < n:
                dead = _stripe_dead(pos[i0:b1], cols[c0:n], window, extras)
                elements[hh] -= int(np.count_nonzero(dead))
                term = _mask_term(dead)
            m[hh, i0:b1] = _to_weights(s, s[:, c0:], term)
            np.sum(s, axis=-1, out=l[hh, i0:b1])
            np.matmul(s, v_cols[:n], out=out[hh, i0:b1])
            gemms += 2

    # ---- band part: per q-block, all heads of every KV group at once;
    # spans are (shift, width) -- the extra bands first, the window (which
    # gives every row a live entry) last; a dense row's spans tile its
    # prefix farthest first for the same reason.
    q4 = qf.reshape(h_kv, n_rep, s_q, d)
    out4 = out.reshape(h_kv, n_rep, s_q, d)
    l4 = l.reshape(h_kv, n_rep, s_q)
    m4 = m.reshape(h_kv, n_rep, s_q)

    def attend_block(r0, r1, block_spans, scratch):
        """One q-block through its spans; touches only rows [r0, r1) of
        the accumulators and ``scratch``.  Returns (live entries of each
        head, GEMM calls)."""
        bq = r1 - r0
        live = gemm_calls = 0
        q_blk = scratch.take("q_band", (h_kv, n_rep, bq, d))
        np.copyto(q_blk, q4[:, :, r0:r1])
        o_blk, l_blk = out4[:, :, r0:r1], l4[:, :, r0:r1]
        m_blk = m4[:, :, r0:r1]
        for shift, w in block_spans:
            start = offset + r0 - shift - w + 1  # unclipped left edge of the span
            lo, hi = max(start, 0), offset + r1 - shift
            if hi <= lo:  # the band starts further back than these rows reach
                continue
            n = hi - lo
            term = terms[w][:bq, lo - start:hi - start]
            s = scratch.take("s_band", (h_kv, n_rep * bq, n))
            np.matmul(
                q_blk.reshape(h_kv, n_rep * bq, d),
                kf[:, lo:hi].transpose(0, 2, 1),
                out=s,
            )
            s4 = s.reshape(h_kv, n_rep, bq, n)
            ref = _to_weights(s4, s4, term, m_blk)
            pv = scratch.take("pv_band", (h_kv, n_rep * bq, d))
            np.matmul(s, vf[:, lo:hi], out=pv)
            gemm_calls += 2
            l_new = s4.sum(axis=-1)
            # Rescale what is accumulated so far to the joint row max.
            a = np.exp(m_blk - ref)
            l_new += l_blk * a
            o_blk *= a[..., None]
            m_blk[...] = ref
            o_blk += pv.reshape(h_kv, n_rep, bq, d)
            l_blk[...] = l_new
            # Live entries: the row at p keeps the band's keys in [0, p - shift].
            reach = offset + np.arange(r0, r1) - shift + 1
            live += int(np.minimum(np.maximum(reach, 0), w).sum())
        o_blk /= l_blk[..., None]
        return live, gemm_calls

    spans = [(lo, hi - lo) for lo, hi in extras] + [(0, window)]
    dense_spans = [(shift, _DENSE_SPAN)
                   for shift in range(0, s_k, _DENSE_SPAN)][::-1]
    counts = [attend_block(r0, min(r0 + _BAND_ROWS, s_nd), spans, ws)
              for r0 in range(0, s_nd, _BAND_ROWS)]
    # Dense q-blocks are the pool's units: milliseconds each, disjoint
    # output rows, a workspace per thread; they only read the one mask term
    # they share, which is built once per process.
    def dense_block(r0):
        return attend_block(r0, min(r0 + _BAND_ROWS, s_q), dense_spans,
                            _thread_workspace())

    counts += pool.run(dense_block, range(s_nd, s_q, _BAND_ROWS))
    for live, gemm_calls in counts:
        elements += live
        gemms += gemm_calls
    return out, elements, gemms


def packed_block_sparse_attention(
    items: list[PackedItem] | tuple[PackedItem, ...],
) -> PackedAttentionResult:
    """Execute every item's structured sparse attention as one dispatch.

    All items must share ``(H, H_kv, d)`` (one model); sequence lengths
    may be ragged.  Items that clear ``_ITEM_UNIT_WORK`` spread over
    :mod:`repro.pool` when at least two do, and otherwise an item's dense
    q-blocks do; either unit computes the same bits on any thread, so
    pooled and inline execution are bitwise equal.  Each
    item's output and counts are **batch-invariant**: bitwise the
    same alone or inside any permutation of a batch (the serving engine's
    per-request path and :func:`~repro.core.sample_attention` are batches
    of one).  Outputs are within float32 summation tolerance (gated at
    2e-5) of dense attention under the item's *element* mask -- window
    band ∪ extra diagonal bands ∪ causal stripe/sink columns ∪ dense last
    rows.  The dispatch-level ``stats`` dict reports the packed-layout
    counters.
    """
    stats = {"packed_requests": len(items), "packed_rows": 0,
             "gemm_calls": 0, "elements_computed": 0}
    if not items:
        return PackedAttentionResult(results=[], stats=stats)

    # ---- one validation pass over the batch -----------------------------
    h, h_kv, _, _, d = validate_qkv(items[0].q, items[0].k, items[0].v)
    geometry = []  # per item: what _execute_item takes besides the item
    widths = set()  # every band width any item's q-blocks use
    for i, it in enumerate(items):
        hi, hkvi, s_q, s_k, di = validate_qkv(it.q, it.k, it.v)
        if (hi, hkvi, di) != (h, h_kv, d):
            raise ShapeError(
                f"packed items must share (H, H_kv, d); item {i} has "
                f"({hi}, {hkvi}, {di}) != ({h}, {h_kv}, {d})"
            )
        if it.window < 1:
            raise MaskError(f"item {i}: window must be >= 1, got {it.window}")
        scale = np.float32(
            it.scale if it.scale is not None else 1.0 / np.sqrt(d)
        )
        # The window is the first distance interval (widened by any band
        # that touches it), every further one an extra diagonal band; no
        # distance reaches s_k.  Rows [s_nd, s_q) -- the "bottom area" --
        # attend to every causal key.
        intervals = normalise_bands(it.window, it.bands)
        extras = [(lo, min(hi, s_k)) for lo, hi in intervals[1:] if lo < s_k]
        s_nd = s_q - min(max(it.dense_last_rows, 0), s_q)
        geometry.append((
            scale,
            normalise_indices(it.kv_indices, h, s_k, it.sink_tokens),
            min(intervals[0][1], s_k),
            extras,
            s_nd,
        ))
        widths.add(geometry[-1][2])
        widths.update(hi - lo for lo, hi in extras)
        if s_nd < s_q:
            widths.add(_DENSE_SPAN)
        stats["packed_rows"] += s_q

    # Band mask terms, shared by every item of equal width and read-only
    # from here on.  Items that clear the floor are the pool's units,
    # largest first, when at least two of them do: each runs its own dense
    # q-blocks inline.
    terms = _band_terms(widths)
    executed = _items_on_the_pool(
        lambda i: _execute_item(items[i], geometry[i], terms),
        [it.q.shape[1] * it.k.shape[1] for it in items],
        _ITEM_UNIT_WORK,
    )

    results = []
    for it, (output, elements, gemms) in zip(items, executed):
        results.append(
            PackedPrefillResult(
                output=output.astype(it.q.dtype, copy=False),
                computed_elements=elements,
                total_causal_elements=total_causal_elements(
                    it.q.shape[1], it.k.shape[1]
                ),
            )
        )
        stats["gemm_calls"] += gemms
        stats["elements_computed"] += int(elements.sum())
    return PackedAttentionResult(results=results, stats=stats)
