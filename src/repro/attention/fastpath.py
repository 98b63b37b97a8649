"""The arbitrary-:class:`BlockMask` kernel: baselines and the tile-granular
ablation.

Not on the serving path -- the engine has executed every
:class:`~repro.core.plan.SparsePlan` (and dense attention) through
:mod:`repro.attention.packed` at stripe granularity since PR 16.  This
kernel is for masks that are *not* plans: the BigBird and StreamingLLM
baselines' backends call :func:`fast_block_sparse_attention` directly
(BigBird's per-row-block random tiles cannot be expressed as stripes +
window), and running it on ``plan.to_block_mask()`` is the tile-granular
ablation of a plan.  It is kept, rather than replaced by its oracle,
because the paper-table experiments would pay for it: ``table2`` takes
+25 % wall time (194 -> 243 s, identical tables) on the tile-at-a-time
:func:`repro.attention.block_sparse_attention`.

That oracle reproduces the *semantics* of the paper's masked
FlashAttention kernel, but pays a Python-level loop over every
``(q_block, k_block)`` tile: per-tile fancy indexing over heads, per-tile
``np.einsum(..., optimize=True)`` path re-planning, and fresh scratch
allocations for every tile it visits.  This module has the same mask
semantics and the same accounting, with the execution restructured:

* **Tile-run coalescing** -- per query block, contiguous active key blocks
  are merged into *runs* (the paper's Figure 2 patterns make long runs
  common: the local window is a contiguous band and stripes cluster), so
  each run is one large GEMM over a contiguous key slab instead of many
  tile-sized contractions.
* **Head-group batching** -- heads whose active-tile row patterns are
  identical (GQA groups and the shared window band make this the norm) are
  processed together with one batched ``matmul`` per run instead of
  per-tile ``heads``-indexed gathers.
* **Workspace reuse** -- the calling thread's grow-only
  :class:`~repro.attention.utils.KernelWorkspace` (the one the packed
  kernel uses on that thread) owns the score/probability/accumulator
  scratch, so a call allocates O(1) new memory once it is warm, with
  ``einsum`` replaced by ``np.matmul(..., out=...)`` into preallocated
  buffers.
* **No KV expansion** -- grouped-query KV heads are indexed in place
  (``k[h // n_rep]``); the ``(H, S, d)`` materialisation
  :func:`~repro.attention.utils.expand_kv` performs never happens on this
  path.

Outputs match the reference kernel and ``dense_attention(mask.to_dense())``
to float32 tolerance (the property tests assert all three agree).
"""

from __future__ import annotations

import numpy as np

from ..audit import contracts
from ..errors import MaskError
from .blocksparse import BlockSparseResult
from .masks import BlockMask
from .utils import NEG_INF, _thread_workspace, total_causal_blocks, validate_qkv

__all__ = [
    "coalesce_runs",
    "head_pattern_groups",
    "fast_block_sparse_attention",
]


#: Minimum active-column coverage of a group's key span for the fast path to
#: take the whole span as a contiguous KV *view* (masking the gap columns)
#: instead of gathering the active columns into a scratch slab.  Wasting up
#: to ``1 - _SPAN_COVERAGE`` of the span's FLOPs is cheaper than the gather's
#: memory traffic.
_SPAN_COVERAGE = 0.75


def coalesce_runs(active_row: np.ndarray) -> list[tuple[int, int]]:
    """Merge an active-tile row into maximal contiguous runs.

    ``active_row`` is a boolean vector over key blocks; the result is a
    list of half-open block ranges ``[j0, j1)`` covering exactly the active
    entries.  The local window band yields one long run; scattered stripes
    yield short ones -- each becomes a single GEMM in the fast kernel.
    """
    idx = np.flatnonzero(active_row)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [idx.size - 1]))]
    return [(int(j0), int(j1) + 1) for j0, j1 in zip(starts, ends)]


def head_pattern_groups(patterns: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group heads by identical active-tile row pattern.

    ``patterns`` is ``(H, n_kblocks)`` boolean; returns ``(heads, row)``
    pairs where ``heads`` (sorted ascending) all share the active row
    ``row``.  GQA head groups and the shared window band make a handful of
    groups per query block the common case, so one batched matmul covers
    many heads.
    """
    # Bit-packed row signatures + a dict beat np.unique(axis=0)'s row sort
    # by an order of magnitude at kernel head counts.
    packed = np.packbits(patterns, axis=1)
    sigs: dict[bytes, list[int]] = {}
    for hh in range(patterns.shape[0]):
        sigs.setdefault(packed[hh].tobytes(), []).append(hh)
    return [
        (np.asarray(hs, dtype=np.int64), patterns[hs[0]])
        for hs in sigs.values()
    ]


def fast_block_sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: BlockMask,
    *,
    scale: float | None = None,
) -> BlockSparseResult:
    """Coalesced, head-grouped, workspace-reusing block-sparse attention.

    Drop-in replacement for :func:`~repro.attention.block_sparse_attention`
    -- same signature, same
    :class:`~repro.attention.blocksparse.BlockSparseResult` accounting
    (``visited_blocks`` counts the tiles the mask made it visit, exactly as
    the reference kernel reports them), outputs equal to float32 tolerance.
    """
    h, h_kv, s_q, s_k, d = validate_qkv(q, k, v)
    if mask.blocks.shape[0] != h:
        raise MaskError(
            f"mask has {mask.blocks.shape[0]} heads, tensors have {h}"
        )
    if mask.s_q != s_q or mask.s_k != s_k:
        raise MaskError(
            f"mask geometry ({mask.s_q}, {mask.s_k}) != tensors ({s_q}, {s_k})"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    scale = np.float32(scale)
    b = mask.block_size
    offset = s_k - s_q
    n_rep = h // h_kv

    # Scale is folded into q up front: one small (H, S_q, d) pass instead of
    # a full pass over every (g, bq, n) score buffer per run.
    qf = q.astype(np.float32, copy=False) * scale
    kf = k.astype(np.float32, copy=False)  # (H_kv, S_k, d): never expanded
    vf = v.astype(np.float32, copy=False)
    head_kv = np.arange(h) // n_rep

    nq, nk = mask.blocks.shape[1], mask.blocks.shape[2]
    out = np.zeros((h, s_q, d), dtype=np.float32)

    # Per-q-block causal limit on key blocks, and the same visited-tile
    # accounting the reference kernel accumulates tile by tile.
    q_last = np.minimum((np.arange(nq) + 1) * b, s_q) - 1 + offset
    k_end_block = np.minimum(nk, q_last // b + 1)
    reachable = np.arange(nk)[None, None, :] < k_end_block[None, :, None]
    visited = (mask.blocks & reachable).sum(axis=(1, 2)).astype(np.int64)

    ws = _thread_workspace()

    def process_block(qi: int) -> tuple[int, int, int]:
        """One query block; returns (runs coalesced, head groups, GEMMs)."""
        q0, q1 = qi * b, min((qi + 1) * b, s_q)
        bq = q1 - q0
        kend = int(k_end_block[qi])
        if kend <= 0:
            return 0, 0, 0
        patterns = mask.blocks[:, qi, :kend]
        if not patterns.any():
            return 0, 0, 0
        q_tile = qf[:, q0:q1]
        rows_abs = np.arange(q0, q1, dtype=np.int64)[:, None] + offset
        last_visible = (q1 - 1) + offset

        n_runs = 0
        n_gemms = 0

        def exec_slab(heads, k_slab, v_slab, cols, dead):
            """Two GEMMs + one softmax for ``heads`` against a KV slab.

            ``k_slab``/``v_slab`` are ``(n, d)`` (shared KV head, flattened
            tall GEMM) or ``(g, n, d)`` (batched); ``dead`` marks masked
            entries (causal and/or span-gap columns), or is ``None``.
            Writes the finished output rows -- the caller guarantees each
            head's rows are produced by exactly one ``exec_slab`` call.
            """
            nonlocal n_gemms
            g = heads.size
            n = cols.size
            q_group = q_tile if g == h else q_tile[heads]
            s = ws.take("scores", (g, bq, n))
            if k_slab.ndim == 2:
                # Shared KV slab: flatten (g, bq) into one tall GEMM so
                # BLAS sees M = g*bq instead of g skinny multiplies.
                q2 = ws.take("q2", (g, bq, d))
                np.copyto(q2, q_group)
                np.matmul(
                    q2.reshape(g * bq, d), k_slab.T, out=s.reshape(g * bq, n)
                )
            else:
                np.matmul(q_group, k_slab.transpose(0, 2, 1), out=s)
            if dead is not None:
                np.copyto(s, NEG_INF, where=dead[None])
            m = np.max(s, axis=-1, out=ws.take("m", (g, bq)))
            # Rows whose every score is masked have m == NEG_INF;
            # exponentiate against 0 there so their probabilities vanish
            # instead of collapsing to exp(NEG_INF - NEG_INF) = 1.
            m_base = np.where(m <= NEG_INF / 2, 0.0, m)
            s -= m_base[..., None]
            np.exp(s, out=s)  # s now holds the unnormalised probabilities
            l = np.sum(s, axis=-1, out=ws.take("l", (g, bq)))
            pv = ws.take("pv", (g, bq, d))
            if v_slab.ndim == 2:
                np.matmul(
                    s.reshape(g * bq, n), v_slab, out=pv.reshape(g * bq, d)
                )
            else:
                np.matmul(s, v_slab, out=pv)
            n_gemms += 2
            safe_l = np.where(l == 0.0, 1.0, l)
            out[heads, q0:q1] = pv / safe_l[..., None]

        groups = head_pattern_groups(patterns)
        for heads, row in groups:
            if not row.any():
                continue
            g = heads.size
            kv_ids = head_kv[heads]

            # Coalesce the group's active key blocks into contiguous runs,
            # then assemble ONE key/value slab so the whole (q-block, group)
            # pair is two GEMMs and a single softmax -- no online
            # accumulation, no per-run rescaling passes.  When the runs
            # cover most of their span (the paper's window band plus
            # clustered stripes make this the norm) the slab is a contiguous
            # *view* of KV with the gap columns masked out; only genuinely
            # scattered patterns pay a column gather.
            runs = coalesce_runs(row)
            n_runs += len(runs)
            span0 = runs[0][0] * b
            span1 = min(runs[-1][1] * b, s_k, last_visible + 1)
            n_span = span1 - span0
            if n_span <= 0:
                continue
            active = np.repeat(row[runs[0][0]:runs[-1][1]], b)[:n_span]
            n_active = int(np.count_nonzero(active))
            gaps = n_active < n_span
            use_span = not gaps or n_active >= _SPAN_COVERAGE * n_span
            if use_span:
                cols = np.arange(span0, span1, dtype=np.int64)
            else:
                cols = span0 + np.flatnonzero(active)
                gaps = False  # gathered slab holds active columns only
            n = cols.size
            straddles = int(cols[-1]) > q0 + offset
            dead = None
            if straddles or gaps:  # causal diagonal / masked gap columns
                dead = np.greater(
                    cols[None, :], rows_abs,
                    out=ws.take("dead", (bq, n), dtype=np.bool_),
                )
                if gaps:
                    np.logical_or(dead, ~active[None, :], out=dead)

            if n_rep == 1 and g > 1:
                # MHA multi-head group: one batched GEMM over KV views.
                if use_span:
                    if g == h:
                        k_slab = kf[:, span0:span1]  # (H, n, d) view
                        v_slab = vf[:, span0:span1]
                    else:
                        k_slab = kf[kv_ids, span0:span1]  # (g, n, d) gather
                        v_slab = vf[kv_ids, span0:span1]
                else:
                    sel = (kv_ids[:, None], cols[None, :])
                    k_slab = kf[sel]  # (g, n, d) gather, one pass
                    v_slab = vf[sel]
                exec_slab(heads, k_slab, v_slab, cols, dead)
                continue

            # GQA (or single head): split the group at KV-head boundaries so
            # every segment shares ONE KV head -- its slab is a contiguous
            # (n, d) view (span) or a single np.take (gather), never a
            # batched fancy-index copy.  kv_ids is sorted (heads are sorted
            # and head -> kv is monotone), so segments are slices.
            seg_starts = np.flatnonzero(np.diff(kv_ids)) + 1
            for seg in np.split(np.arange(g), seg_starts):
                kv0 = int(kv_ids[seg[0]])
                sub = heads[seg]
                if use_span:
                    k_slab = kf[kv0, span0:span1]  # (n, d) view, no copy
                    v_slab = vf[kv0, span0:span1]
                else:
                    k_slab = np.take(
                        kf[kv0], cols, axis=0, out=ws.take("k_slab", (n, d))
                    )
                    v_slab = np.take(
                        vf[kv0], cols, axis=0, out=ws.take("v_slab", (n, d))
                    )
                exec_slab(sub, k_slab, v_slab, cols, dead)
        return n_runs, len(groups), n_gemms

    total_runs = total_groups = total_gemms = 0
    for qi in range(nq):
        r, g, mm = process_block(qi)
        total_runs += r
        total_groups += g
        total_gemms += mm

    stats = {
        "runs_coalesced": int(total_runs),
        "head_groups": int(total_groups),
        "gemm_calls": int(total_gemms),
        "tiles_visited": int(visited.sum()),
        "mode": "fast",
    }
    if contracts.enabled():
        contracts.check_no_alias(out, ws, q, k, v)
    return BlockSparseResult(
        output=out.astype(q.dtype, copy=False),
        visited_blocks=visited,
        total_causal_blocks=total_causal_blocks(s_q, s_k, b),
        stats=stats,
    )

