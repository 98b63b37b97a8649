"""Every plan-side rewrite against the implementation it replaced.

Stage-1 sampling, stage-2 selection, ``SparsePlan.validate``,
``SparsePlan.to_block_mask`` / ``stripe_block_mask`` and
``normalise_indices`` each do their work in a few whole-array calls per
plan.  The per-head loops they replaced are copied below as oracles, and
hypothesis holds each rewrite to its oracle bit for bit: the same scores,
the same permutation (ties and zeros included, float32 and float64), the
same verdict, the same tiles, the same arrays and the same errors.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SampleAttentionConfig
from repro.attention.masks import BlockMask, normalise_indices, stripe_block_mask
from repro.attention.utils import _EXP_CLAMP, NEG_INF, grouped_qk
from repro.audit import contracts
from repro.core import SparsePlan, sample_column_scores, select_kv_indices
from repro.core.sampling import sampled_row_indices
from repro.errors import ContractViolation, MaskError, ShapeError

SETTINGS = dict(max_examples=60, deadline=None)


# --------------------------------------------------------------------------
# Oracles: the implementations before the rewrite, per head and per chunk.
# --------------------------------------------------------------------------


def old_sample_column_scores(q, k, row_indices, *, scale, causal, chunk, reduction):
    h, s_q, _ = q.shape
    s_k = k.shape[1]
    scale = np.float32(scale)
    kf = k.astype(np.float32, copy=False)
    qf = q.astype(np.float32, copy=False)
    offset = s_k - s_q
    col_pos = np.arange(s_k, dtype=np.int64)
    column = np.zeros((h, s_k), dtype=np.float32)
    visible_rows = np.zeros(s_k, dtype=np.int64)
    for c0 in range(0, row_indices.size, chunk):
        rows = row_indices[c0 : c0 + chunk]
        s = grouped_qk(qf[:, rows], kf) * scale
        if causal:
            visible = col_pos[None, :] <= (rows + offset)[:, None]
            s = np.where(visible[None], s, NEG_INF)
            visible_rows += visible.sum(axis=0)
        else:
            visible_rows += rows.size
        s -= np.max(s, axis=-1, keepdims=True)
        np.maximum(s, _EXP_CLAMP, out=s)
        p = np.exp(s, out=s)
        if causal:
            p = np.where(visible[None], p, 0.0)
        z = np.sum(p, axis=-1, keepdims=True)
        z = np.where(z == 0.0, 1.0, z)
        p /= z
        if reduction == "max":
            column = np.maximum(column, p.max(axis=1))
        else:
            column += p.sum(axis=1)
    if reduction == "mean":
        column = column / np.maximum(visible_rows, 1).astype(np.float32)[None, :]
    return column


def old_select_kv_indices(column_scores, alpha, *, min_keep, mode):
    from repro.core.filtering import PAPER_PREFIX_RATIOS

    h, s_k = column_scores.shape
    min_keep = int(np.clip(min_keep, 0, s_k))
    order = np.argsort(-column_scores, axis=1, kind="stable")
    sorted_mass = np.take_along_axis(column_scores, order, axis=1)
    cum = np.cumsum(sorted_mass, axis=1)
    total = cum[:, -1] if s_k else np.zeros(h)
    safe_total = np.where(total <= 0.0, 1.0, total)
    share = cum / safe_total[:, None]
    if mode == "exact":
        eps = np.float64(1e-9)
        k_per_head = np.array(
            [int(np.searchsorted(share[i], alpha - eps) + 1) for i in range(h)],
            dtype=np.int64,
        )
    else:
        ratios = np.asarray(PAPER_PREFIX_RATIOS, dtype=np.float64)
        grid_k = np.maximum(1, np.ceil(ratios * s_k).astype(np.int64))
        grid_k = np.minimum(grid_k, s_k)
        k_per_head = np.empty(h, dtype=np.int64)
        for i in range(h):
            j = int(np.searchsorted(share[i, grid_k - 1], alpha - 1e-9))
            k_per_head[i] = grid_k[min(j, grid_k.size - 1)]
    k_per_head = np.clip(k_per_head, max(min_keep, 1), s_k)
    dead = total <= 0.0
    kv_indices, achieved = [], np.empty(h, dtype=np.float64)
    for i in range(h):
        kk = int(k_per_head[i])
        if dead[i]:
            idx = np.arange(min(max(min_keep, 1), s_k), dtype=np.int64)
            achieved[i] = 0.0
        else:
            idx = np.sort(order[i, :kk])
            achieved[i] = float(share[i, kk - 1])
        kv_indices.append(idx)
    kv_ratio = np.array([len(ix) / max(s_k, 1) for ix in kv_indices])
    if contracts.enabled():
        contracts.check_selection(kv_indices, achieved, alpha, s_k)
    return kv_indices, kv_ratio, achieved


def old_validate(plan, s_k=None):
    sk = plan.s_k if s_k is None else int(s_k)
    if sk < 1 or plan.window < 1 or plan.window > sk:
        return False
    if not plan.kv_indices:
        return False
    for ix in plan.kv_indices:
        arr = np.asarray(ix)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            return False
        if arr.size < min(plan.config.min_keep, plan.planning_s_k, sk):
            return False
        if arr.size and (arr[0] < 0 or arr[-1] >= sk):
            return False
        if arr.size > 1 and (np.diff(arr) <= 0).any():
            return False
    if plan.kv_ratio.shape != (plan.n_heads,):
        return False
    if not (np.isfinite(plan.kv_ratio).all() and (plan.kv_ratio >= 0).all()):
        return False
    share = np.asarray(plan.achieved_share)
    return share.shape == (plan.n_heads,) and bool(np.isfinite(share).all())


def _old_positions(s_q, s_k, b):
    nq, nk = -(-s_q // b), -(-s_k // b)
    offset = s_k - s_q
    q_first = np.arange(nq) * b + offset
    q_last = np.minimum((np.arange(nq) + 1) * b - 1, s_q - 1) + offset
    k_first = np.arange(nk) * b
    k_last = np.minimum((np.arange(nk) + 1) * b - 1, s_k - 1)
    return q_first, q_last, k_first, k_last


def old_stripe_blocks(kv_indices, s_q, s_k, b):
    _, q_last, k_first, _ = _old_positions(s_q, s_k, b)
    causal_grid = k_first[None, :] <= q_last[:, None]
    blocks = np.zeros((len(kv_indices),) + causal_grid.shape, dtype=bool)
    for h, idx in enumerate(kv_indices):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            continue
        if idx.min() < 0 or idx.max() >= s_k:
            raise MaskError(
                f"head {h}: kv indices out of range [0, {s_k}), "
                f"got min={idx.min()}, max={idx.max()}"
            )
        blocks[h][:, np.unique(idx // b)] = True
        blocks[h] &= causal_grid
    return blocks


def old_plan_blocks(plan, b):
    """window | stripes | sinks | dense last rows, one full mask each."""
    h, s_q, s_k = plan.n_heads, plan.s_q, plan.s_k
    if plan.window < 1:
        raise MaskError(f"window must be >= 1, got {plan.window}")
    q_first, q_last, k_first, k_last = _old_positions(s_q, s_k, b)
    grid = (k_first[None, :] <= q_last[:, None]) & (
        k_last[None, :] >= q_first[:, None] - (plan.window - 1)
    )
    blocks = np.broadcast_to(grid, (h,) + grid.shape).copy()
    blocks = blocks | old_stripe_blocks(plan.kv_indices, s_q, s_k, b)
    sinks = plan.config.sink_tokens
    if sinks > 0:
        idx = np.arange(min(sinks, s_k))
        blocks = blocks | old_stripe_blocks([idx] * h, s_q, s_k, b)
    rows = plan.config.dense_last_rows
    if rows > 0 and s_q > 0:
        first_block = max(s_q - rows, 0) // b
        causal_grid = k_first[None, :] <= q_last[:, None]
        dense = np.zeros_like(blocks)
        dense[:, first_block:, :] = causal_grid[first_block:, :]
        blocks = blocks | dense
    if contracts.enabled():
        contracts.check_merged_mask(plan, BlockMask(blocks, b, s_q, s_k))
    return blocks


def old_normalise_indices(kv_indices, h, s_k, sink_tokens):
    if len(kv_indices) != h:
        raise MaskError(f"got {len(kv_indices)} stripe sets for {h} heads")
    sinks = np.arange(min(max(sink_tokens, 0), s_k), dtype=np.int64)
    out = []
    for hh, idx in enumerate(kv_indices):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= s_k):
            raise MaskError(f"head {hh}: stripe index out of range [0, {s_k})")
        out.append(np.union1d(idx, sinks))
    return out


# --------------------------------------------------------------------------
# Strategies and helpers.
# --------------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ContractViolation, MaskError, ShapeError, IndexError, ValueError) as exc:
        return type(exc), str(exc)


def assert_arrays_identical(got, ref):
    """Same dtype, shape and bytes (so ``-0.0`` vs ``0.0`` and NaN
    payloads count too)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@st.composite
def stripe_sets(draw, *, max_heads=6, max_s_k=700):
    """Ragged per-head sorted, unique stripe columns; some heads empty."""
    s_k = draw(st.integers(1, max_s_k))
    h = draw(st.integers(1, max_heads))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heads = []
    for _ in range(h):
        n = draw(st.sampled_from([0, 1, 2, 5, s_k // 7, s_k // 2, s_k]))
        heads.append(np.sort(rng.choice(s_k, size=min(n, s_k), replace=False)))
    return s_k, [ix.astype(np.int64) for ix in heads]


def make_plan(kv_indices, s_q, s_k, *, window, sink_tokens=0,
              dense_last_rows=0, min_keep=1):
    config = SampleAttentionConfig(
        sink_tokens=sink_tokens, dense_last_rows=dense_last_rows,
        min_keep=min_keep,
    )
    h = len(kv_indices)
    return SparsePlan(
        kv_indices=kv_indices,
        window=window,
        kv_ratio=np.array([np.size(ix) / s_k for ix in kv_indices]),
        achieved_share=np.ones(h),
        sampled_rows=np.arange(1, dtype=np.int64),
        config=config,
        s_q=s_q,
        s_k=s_k,
    )


# --------------------------------------------------------------------------
# Stage 1.
# --------------------------------------------------------------------------


class TestSampleColumnScores:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rep=st.sampled_from([1, 2, 4]),
        h_kv=st.integers(1, 3),
        d=st.sampled_from([8, 32, 80]),
        s_k=st.integers(1, 3000),
        s_q_share=st.floats(0.0, 1.0),
        r_row=st.sampled_from([0.05, 0.2, 1.0]),
        chunk=st.sampled_from([1, 7, 256]),
        reduction=st.sampled_from(["sum", "max", "mean"]),
        causal=st.booleans(),
        strided=st.booleans(),
        gain=st.sampled_from([1.0, 40.0]),
    )
    @settings(**SETTINGS)
    def test_bitwise_the_grouped_qk_scores(
        self, seed, n_rep, h_kv, d, s_k, s_q_share, r_row, chunk, reduction,
        causal, strided, gain,
    ):
        # Chunked-prefill geometry (s_q <= s_k, up to one 256-row chunk and
        # sometimes the whole prompt), strided cache views of an
        # over-allocated buffer, and a gain that pushes most of each row
        # onto the exp clamp.
        rng = np.random.default_rng(seed)
        s_q = max(1, min(s_k, int(round(s_q_share * min(s_k, 300)))))
        if s_q_share > 0.9:
            s_q = s_k
        cap = s_k + (int(rng.integers(1, 40)) if strided else 0)
        k = rng.standard_normal((h_kv, cap, d)).astype(np.float32)[:, :s_k]
        q = (rng.standard_normal((h_kv * n_rep, s_q, d)) * gain).astype(np.float32)
        rows = sampled_row_indices(s_q, r_row)
        scale = 1.0 / np.sqrt(d)
        got = sample_column_scores(
            q, k, rows, scale=scale, causal=causal, chunk=chunk,
            reduction=reduction,
        ).column_scores
        ref = old_sample_column_scores(
            q, k, rows, scale=scale, causal=causal, chunk=chunk,
            reduction=reduction,
        )
        assert_arrays_identical(got, ref)


# --------------------------------------------------------------------------
# Stage 2.
# --------------------------------------------------------------------------


# A few values, so that most columns tie with some other column.
_PALETTE = [0.0, 0.0, -0.0, 1e-30, 0.25, 0.25, 0.5, 1.0, 3.0]


@st.composite
def column_scores(draw):
    h = draw(st.integers(0, 5))
    s_k = draw(st.sampled_from([0, 1, 2, 3, 17, 64, 300, 2100]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["palette", "continuous", "mixed", "zeros", "special"]))
    if kind == "palette":
        x = rng.choice(_PALETTE, (h, s_k))
    elif kind == "continuous":
        x = rng.random((h, s_k)) ** 8
    elif kind == "mixed":
        x = np.where(rng.random((h, s_k)) < 0.5, rng.choice(_PALETTE, (h, s_k)),
                     rng.random((h, s_k)))
    elif kind == "zeros":
        x = np.zeros((h, s_k))
        if h:
            x[rng.integers(0, h)] = rng.choice(_PALETTE, s_k)
    else:
        x = rng.choice(_PALETTE + [np.inf, np.nan, -np.nan], (h, s_k))
    return x.astype(dtype)


class TestSelectKvIndices:
    @given(
        x=column_scores(),
        alpha=st.sampled_from([1e-12, 0.3, 0.9, 0.95, 1.0]),
        min_keep=st.integers(-1, 40),
        mode=st.sampled_from(["exact", "quantized"]),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_identical_to_the_stable_argsort_selection(self, x, alpha, min_keep, mode):
        got = outcome(select_kv_indices, x, alpha, min_keep=min_keep, mode=mode)
        ref = outcome(old_select_kv_indices, x, alpha, min_keep=min_keep, mode=mode)
        assert got[0] == ref[0]
        if got[0] != "ok":
            assert got == ref
            return
        res, (kv_indices, kv_ratio, achieved) = got[1], ref[1]
        assert len(res.kv_indices) == len(kv_indices)
        for a, b in zip(res.kv_indices, kv_indices):
            assert_arrays_identical(a, b)
        assert_arrays_identical(res.kv_ratio, kv_ratio)
        assert_arrays_identical(res.achieved_share, achieved)


# --------------------------------------------------------------------------
# SparsePlan.validate.
# --------------------------------------------------------------------------


def _corrupt(kind, kv_indices, s_k, rng):
    """One corruption per ``False`` branch of ``validate`` (and ``None``)."""
    heads = [ix.copy() for ix in kv_indices]
    nonempty = [i for i, ix in enumerate(heads) if ix.size]
    pick = rng.choice(nonempty) if nonempty else 0
    if kind == "unsorted" and heads[pick].size > 1:
        heads[pick] = heads[pick][::-1].copy()
    elif kind == "duplicated" and heads[pick].size:
        heads[pick] = np.sort(np.append(heads[pick], heads[pick][-1]))
    elif kind == "negative":
        heads[pick] = np.concatenate(([-1], heads[pick])).astype(np.int64)
    elif kind == "past_end":
        heads[pick] = np.append(heads[pick], s_k + int(rng.integers(0, 3)))
    elif kind == "float_dtype":
        heads[pick] = heads[pick].astype(np.float64)
    elif kind == "two_d":
        heads[pick] = heads[pick].reshape(1, -1)
    elif kind == "too_few":
        heads[pick] = heads[pick][:0]
    elif kind == "uint":
        heads[pick] = heads[pick].astype(np.uint64)
    elif kind == "no_heads":
        heads = []
    return heads


class TestValidate:
    @given(
        stripes=stripe_sets(),
        kind=st.sampled_from([
            None, "unsorted", "duplicated", "negative", "past_end",
            "float_dtype", "two_d", "too_few", "uint", "no_heads",
            "window_zero", "window_past_end", "ratio_shape", "share_nan",
            "shorter_prefix",
        ]),
        min_keep=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_verdict(self, stripes, kind, min_keep, seed):
        s_k, kv_indices = stripes
        rng = np.random.default_rng(seed)
        plan = make_plan(
            _corrupt(kind, kv_indices, s_k, rng), s_k, s_k,
            window=max(1, s_k // 4), min_keep=min_keep,
        )
        fields = {}
        if kind == "window_zero":
            fields["window"] = 0
        elif kind == "window_past_end":
            fields["window"] = s_k + 1
        elif kind == "ratio_shape":
            fields["kv_ratio"] = np.zeros(plan.n_heads + 1)
        elif kind == "share_nan" and plan.n_heads:
            share = plan.achieved_share.copy()
            share[-1] = np.nan
            fields["achieved_share"] = share
        plan = dataclasses.replace(plan, **fields)
        s_arg = int(rng.integers(1, s_k + 1)) if kind == "shorter_prefix" else None
        assert plan.validate(s_k=s_arg) == old_validate(plan, s_arg)

    @pytest.mark.parametrize("kind", [
        "unsorted", "duplicated", "negative", "past_end", "float_dtype",
        "two_d", "too_few", "no_heads",
    ])
    def test_every_structural_branch_says_false(self, kind):
        kv = [np.array([0, 3, 9], dtype=np.int64), np.array([], dtype=np.int64),
              np.array([1, 2], dtype=np.int64)]
        plan = make_plan(
            _corrupt(kind, kv, 10, np.random.default_rng(0)), 10, 10,
            window=2, min_keep=1 if kind == "too_few" else 0,
        )
        assert plan.validate() is False
        assert old_validate(plan) is False


# --------------------------------------------------------------------------
# Tile masks and the kernel's stripe ∪ sink columns.
# --------------------------------------------------------------------------


class TestBlockMasks:
    @given(
        stripes=stripe_sets(),
        s_q_share=st.floats(0.0, 1.0),
        window_share=st.floats(0.0, 1.0),
        block_size=st.sampled_from([1, 4, 16, 64]),
        sink_tokens=st.sampled_from([0, 1, 4, 100]),
        dense_last_rows=st.sampled_from([0, 1, 5, 64, 10_000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_to_block_mask_identical(
        self, stripes, s_q_share, window_share, block_size, sink_tokens,
        dense_last_rows,
    ):
        s_k, kv_indices = stripes
        s_q = int(round(s_q_share * s_k))
        plan = make_plan(
            kv_indices, s_q, s_k, window=max(1, int(window_share * s_k)),
            sink_tokens=sink_tokens, dense_last_rows=dense_last_rows,
        )
        got = plan.to_block_mask(block_size).blocks
        assert_arrays_identical(got, old_plan_blocks(plan, block_size))

    @given(stripes=stripe_sets(), block_size=st.sampled_from([1, 8, 64]),
           bad=st.sampled_from([None, -1, "past_end"]), seed=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_stripe_block_mask_and_its_errors(self, stripes, block_size, bad, seed):
        s_k, kv_indices = stripes
        if bad is not None:
            pick = np.random.default_rng(seed).integers(0, len(kv_indices))
            value = -1 if bad == -1 else s_k
            kv_indices[pick] = np.append(kv_indices[pick], value)
        got = outcome(stripe_block_mask, kv_indices, s_k, s_k, block_size)
        ref = outcome(old_stripe_blocks, kv_indices, s_k, s_k, block_size)
        assert got[0] == ref[0]
        if got[0] == "ok":
            assert_arrays_identical(got[1].blocks, ref[1])
        else:
            assert got == ref
        plan = make_plan(kv_indices, s_k, s_k, window=1, sink_tokens=2)
        got = outcome(plan.to_block_mask, block_size)
        ref = outcome(old_plan_blocks, plan, block_size)
        assert got[0] == ref[0]
        if got[0] == "ok":
            assert_arrays_identical(got[1].blocks, ref[1])
        else:
            assert got == ref

    def test_window_error_comes_first(self):
        plan = make_plan([np.array([7])], 4, 4, window=0)
        with pytest.raises(MaskError, match="window must be >= 1"):
            plan.to_block_mask()


class TestNormaliseIndices:
    @given(
        stripes=stripe_sets(),
        sink_tokens=st.sampled_from([-2, 0, 1, 4, 100, 10_000]),
        kind=st.sampled_from([None, "unsorted", "duplicated", "negative",
                              "past_end", "float_dtype", "two_d"]),
        wrong_count=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_identical_arrays_and_errors(self, stripes, sink_tokens, kind,
                                         wrong_count, seed):
        s_k, kv_indices = stripes
        heads = _corrupt(kind, kv_indices, s_k, np.random.default_rng(seed))
        h = len(heads) + (1 if wrong_count else 0)
        got = outcome(normalise_indices, heads, h, s_k, sink_tokens)
        ref = outcome(old_normalise_indices, heads, h, s_k, sink_tokens)
        assert got[0] == ref[0]
        if got[0] != "ok":
            assert got == ref
            return
        assert len(got[1]) == len(ref[1])
        for a, b in zip(got[1], ref[1]):
            assert_arrays_identical(a, b)
