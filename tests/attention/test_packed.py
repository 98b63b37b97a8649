"""Packed cross-request prefill dispatch: oracle parity, accounting, stats.

Items execute a plan's own geometry (window band + extra diagonal bands +
gathered stripe/sink columns + dense last rows), so the oracle is dense
attention under the plan's element mask and the count oracle is that
mask's own sum -- both held by ``repro.audit.oracles.check_prefill_batch``,
the check the audit's ``packed`` area calls too.
"""

import concurrent.futures
import dataclasses
import inspect
import queue
import sys
import threading

import numpy as np
import pytest

import repro.attention.packed as packed_mod
from repro import pool
from repro.attention import (
    KernelWorkspace,
    block_sparse_attention,
    dense_attention,
    packed_block_sparse_attention,
    striped_element_counts,
)
from repro.attention.packed import (
    _BAND_ROWS,
    _DENSE_SPAN,
    _STRIPE_ROWS,
    PackedDecodeItem,
    PackedItem,
    packed_decode_attention,
)
from repro.attention.utils import total_causal_elements
from repro.audit.oracles import (
    TOLERANCE,
    check_prefill_batch,
    hand_built_plan,
    plan_element_mask,
)
from repro.errors import ConfigError, MaskError, ShapeError
from tests.conftest import random_qkv, random_stripes, record_threads


def _item(rng, h, s_q, s_k, d, h_kv=None, *, stripes=0.1, **plan_kw):
    """An item executing a hand-built plan; ``stripes`` is either the
    per-head columns or the share of key columns each head draws."""
    h_kv = h if h_kv is None else h_kv
    plan_kw.setdefault("window", max(1, s_k // 8))
    if not isinstance(stripes, list):
        stripes = random_stripes(rng, h, s_k, stripes)
    plan = hand_built_plan(stripes, s_q, s_k, **plan_kw)
    q = rng.standard_normal((h, s_q, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    return PackedItem.from_plan(q, k, v, plan), plan


def _check(pairs):
    """The packed prefill contract on one dispatch over ``pairs``."""
    result = check_prefill_batch(
        [item for item, _ in pairs], [plan for _, plan in pairs]
    )
    assert result.passed, result.detail


class TestPackedParity:
    def test_ragged_lengths_one_dispatch(self, rng):
        pairs = [
            _item(rng, 4, s_q, s_k, 16, stripes=0.2, sink_tokens=2)
            for s_q, s_k in [(16, 48), (48, 48), (1, 33), (17, 80)]
        ]
        res = packed_block_sparse_attention(
            [it for it, _ in pairs], workspace=KernelWorkspace()
        )
        assert res.stats["dispatches"] == 1
        assert res.stats["packed_requests"] == 4
        assert list(res.cu_seqlens) == [0, 16, 64, 65, 82]
        _check(pairs)

    @pytest.mark.parametrize("h,h_kv", [(4, 4), (4, 2), (6, 2), (8, 1)])
    def test_gqa_ratios(self, rng, h, h_kv):
        pairs = [
            _item(rng, h, 32, 64, 8, h_kv=h_kv, stripes=0.3),
            _item(rng, h, 24, 40, 8, h_kv=h_kv, window=24, sink_tokens=4),
        ]
        _check(pairs)

    def test_mixed_head_patterns_across_batch(self, rng):
        # A window-only item (empty stripe sets, first chunk), one with
        # dense per-head stripes falling inside and outside the band, one
        # where every head shares a stripe set overlapping the sinks, and
        # one that is all dense last rows under a window as wide as S_k.
        empty = [np.empty(0, dtype=np.int64)] * 4
        shared = [np.asarray([0, 1, 5, 30, 31, 47], dtype=np.int64)] * 4
        pairs = [
            _item(rng, 4, 32, 32, 8, window=5, stripes=empty),
            _item(rng, 4, 70, 200, 8, window=40, stripes=0.5),
            _item(rng, 4, 32, 48, 8, window=3, stripes=shared, sink_tokens=4,
                  dense_last_rows=3),
            _item(rng, 4, 9, 20, 8, window=20, stripes=0.3, dense_last_rows=9),
        ]
        _check(pairs)

    def test_stabilised_softmax_joins_both_parts(self, rng):
        # Large-norm queries fail the Cauchy-Schwarz bound, so stripe and
        # band parts each take a row max and are joined under the larger.
        item, plan = _item(rng, 4, 96, 300, 16, h_kv=2, stripes=0.2,
                           sink_tokens=4)
        hot = PackedItem.from_plan(item.q * np.float32(12.0), item.k, item.v, plan)
        _check([(hot, plan)])

    def test_k_norm_sq_hint_matches_full_reduction(self, rng):
        item, plan = _item(rng, 4, 32, 64, 8)
        kf = item.k.astype(np.float32)
        hint = float(np.einsum("hsd,hsd->hs", kf, kf).max())
        with_hint = PackedItem.from_plan(
            item.q, item.k, item.v, plan, k_norm_sq=hint
        )
        a = packed_block_sparse_attention([item])
        b = packed_block_sparse_attention([with_hint])
        np.testing.assert_array_equal(a.results[0].output, b.results[0].output)

    def test_scale_and_dtype_roundtrip(self, rng):
        item, plan = _item(rng, 2, 16, 32, 8)
        scaled = PackedItem.from_plan(
            item.q.astype(np.float64),
            item.k.astype(np.float64),
            item.v.astype(np.float64),
            plan,
            scale=0.5,
        )
        res = packed_block_sparse_attention([scaled])
        assert res.results[0].output.dtype == np.float64
        ref = dense_attention(
            item.q, item.k, item.v, mask=plan_element_mask(plan), scale=0.5
        )
        np.testing.assert_allclose(
            res.results[0].output.astype(np.float32), ref.output, atol=TOLERANCE
        )

    def test_runs_in_the_callers_thread(self, rng, monkeypatch):
        # Items without dense rows: stripes and bands stay in the caller's
        # thread (only dense q-blocks are pool units).
        def no_pool(*args, **kwargs):
            raise AssertionError("sparse packed prefill must not use a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        res = packed_block_sparse_attention(
            [_item(rng, 4, 24, 48, 8)[0] for _ in range(4)]
        )
        assert threading.active_count() == before
        assert "threads" not in res.stats
        assert "num_threads" not in inspect.signature(
            packed_block_sparse_attention
        ).parameters


class TestPackedBands:
    """``extras["bands"]`` -- diagonal distance intervals every head keeps
    -- execute as extra band GEMMs joined under the same softmax, and a
    stripe column inside a band is owned by the band alone."""

    @pytest.mark.parametrize(
        "bands",
        [
            [(3, 9)],  # inside the window: merged away
            [(12, 20)],  # adjacent to the window (12): widens it
            [(10, 30)],  # overlapping the window's edge
            [(40, 44), (90, 130)],  # two slashes across the stripe columns
            [(100, 104), (60, 70), (65, 80)],  # unsorted, overlapping
            [(150, 400)],  # reaches past the prefix
            [(500, 600)],  # entirely beyond the prefix
            [(0, 10**9)],  # everything: dense causal
        ],
    )
    def test_matches_the_element_mask(self, rng, bands):
        pairs = [
            _item(rng, 4, 70, 200, 8, h_kv=2, window=12, stripes=0.4,
                  sink_tokens=4, bands=bands),
            _item(rng, 4, 200, 200, 8, h_kv=2, window=12, stripes=0.4,
                  dense_last_rows=3, bands=bands),
        ]
        _check(pairs)

    def test_stabilised_softmax_joins_every_part(self, rng):
        # Rows too early to reach a band hold no live entry in its GEMM;
        # under the stabilised path their garbage weights must be rescaled
        # away by the window's join, with and without stripes before it.
        for stripes in (0.3, 0.0):
            item, plan = _item(rng, 4, 150, 150, 16, h_kv=2, window=5,
                               stripes=stripes, bands=[(40, 48), (100, 101)])
            hot = PackedItem.from_plan(
                item.q * np.float32(12.0), item.k, item.v, plan
            )
            _check([(hot, plan)])

    def test_bands_inside_the_window_change_nothing(self, rng):
        item, plan = _item(rng, 4, 64, 256, 8, window=16, stripes=0.2)
        assert item.bands == ()
        inside = dataclasses.replace(item, bands=[(0, 16), (4, 9)])
        np.testing.assert_array_equal(
            packed_block_sparse_attention([inside]).results[0].output,
            packed_block_sparse_attention([item]).results[0].output,
        )

    def test_bands_cost_two_gemms_per_reachable_q_block(self, rng):
        bare, _ = _item(rng, 4, 130, 256, 8, window=16,
                        stripes=[np.empty(0, dtype=np.int64)] * 4)
        banded = dataclasses.replace(bare, bands=[(50, 60)])
        far = dataclasses.replace(bare, bands=[(254, 260)])
        base = packed_block_sparse_attention([bare]).stats["gemm_calls"]
        assert packed_block_sparse_attention([banded]).stats["gemm_calls"] == base + 2 * 3
        # Distance 254 is reachable only from positions >= 254: the last
        # q-block (rows 128..129 at positions 254..255) alone.
        assert packed_block_sparse_attention([far]).stats["gemm_calls"] == base + 2

    def test_invalid_band_rejected(self, rng):
        item, _ = _item(rng, 4, 16, 32, 8)
        for bad in ([(5, 5)], [(-1, 3)], [(9, 2)]):
            with pytest.raises(ConfigError):
                packed_block_sparse_attention(
                    [dataclasses.replace(item, bands=bad)]
                )


class TestStripeRowBlocks:
    """The stripe part walks ``_STRIPE_ROWS``-row blocks, each scoring only
    the gathered columns left of its own last window edge."""

    def test_one_shot_call_matches_the_element_mask(self, rng):
        s = 2 * _STRIPE_ROWS + 70
        for hot in (False, True):
            item, plan = _item(rng, 4, s, s, 16, h_kv=2, window=24,
                               stripes=0.2, sink_tokens=4, dense_last_rows=2,
                               bands=[(300, 310)])
            if hot:
                item = PackedItem.from_plan(
                    item.q * np.float32(12.0), item.k, item.v, plan
                )
            _check([(item, plan)])

    def test_blocks_skip_columns_right_of_their_window_edge(self, rng):
        # One stripe GEMM pair per (head, row block that owns a column):
        # with every column in the last block's reach only, the first two
        # blocks of a 3-block call run no stripe GEMM at all.
        s = 3 * _STRIPE_ROWS
        late = [np.arange(2 * _STRIPE_ROWS, 2 * _STRIPE_ROWS + 8)] * 2
        early = [np.arange(8)] * 2
        band_only, _ = _item(rng, 2, s, s, 8, window=8,
                             stripes=[np.empty(0, dtype=np.int64)] * 2)
        base = packed_block_sparse_attention([band_only]).stats["gemm_calls"]
        for stripes, blocks in ((late, 1), (early, 3)):
            item, plan = _item(rng, 2, s, s, 8, window=8, stripes=stripes)
            res = packed_block_sparse_attention([item])
            assert res.stats["gemm_calls"] == base + 2 * 2 * blocks
            _check([(item, plan)])


class TestPackedStats:
    def test_empty_batch(self):
        res = packed_block_sparse_attention([])
        assert res.results == []
        assert res.stats["dispatches"] == 1
        assert res.stats["packed_requests"] == 0
        assert list(res.cu_seqlens) == [0]

    def test_tiles_visited_matches_reference_billing(self, rng):
        # The tile footprint stays the plan's block-mask view: what the
        # reference block kernel visits on ``plan.to_block_mask()``.
        pairs = [_item(rng, 4, 32, 64, 8, stripes=0.15) for _ in range(3)]
        res = packed_block_sparse_attention([it for it, _ in pairs])
        total = 0
        for (item, plan), got in zip(pairs, res.results):
            ref = block_sparse_attention(
                item.q, item.k, item.v, plan.to_block_mask()
            )
            np.testing.assert_array_equal(got.visited_blocks, ref.visited_blocks)
            assert got.total_causal_blocks == ref.total_causal_blocks
            total += int(ref.visited_blocks.sum())
        assert res.stats["tiles_visited"] == total

    def test_elements_computed_below_the_tile_footprint(self, rng):
        item, plan = _item(rng, 4, 64, 256, 8, window=16, stripes=0.1)
        res = packed_block_sparse_attention([item])
        got = res.results[0]
        assert res.stats["elements_computed"] == int(plan.element_counts().sum())
        assert got.element_density == pytest.approx(plan.element_density())
        block = plan.config.block_size
        assert (got.computed_elements < got.visited_blocks * block**2).all()
        assert got.element_density < got.density

    def test_analytic_counts_match_kernel(self, rng):
        s = 123
        q, k, v = random_qkv(rng, h=3, s=s, d=8)
        idx = [np.sort(rng.choice(s, size=n, replace=False)) for n in (0, 7, 40)]
        plan = hand_built_plan(idx, s, s, window=11, sink_tokens=4,
                               dense_last_rows=5)
        got = packed_block_sparse_attention(
            [PackedItem.from_plan(q, k, v, plan)]
        ).results[0]
        analytic = striped_element_counts(
            s, s, 11, idx, sink_tokens=4, dense_last_rows=5
        )
        np.testing.assert_array_equal(got.computed_elements, analytic)

    def test_density_reflects_sparsity(self, rng):
        q, k, v = random_qkv(rng, h=1, s=256, d=8)
        plan = hand_built_plan([[]], 256, 256, window=4)
        got = packed_block_sparse_attention(
            [PackedItem.from_plan(q, k, v, plan)]
        ).results[0]
        assert got.element_density < 0.1

    def test_gemm_calls_follow_the_schedule(self, rng):
        # QK + PV per head with a stripe column, and per 64-row q-block.
        item, _ = _item(rng, 4, 130, 256, 8, window=16, stripes=0.1)
        bare, _ = _item(rng, 4, 130, 256, 8, window=16,
                        stripes=[np.empty(0, dtype=np.int64)] * 4)
        assert packed_block_sparse_attention([bare]).stats["gemm_calls"] == 2 * 3
        assert (
            packed_block_sparse_attention([item, bare]).stats["gemm_calls"]
            == 2 * (4 + 3) + 2 * 3
        )


def _workspace_bound(item) -> int:
    """Closed form of the ``ws.take`` sizes in ``packed._execute_item``,
    from the item's shapes alone: linear in ``S_q`` (the scaled queries
    and two row vectors), never ``S_q x |I_KV|``, and -- dense last rows
    tile their prefix with ``_DENSE_SPAN``-wide spans -- never ``S_k``
    wide."""
    h, s_q, d = item.q.shape
    s_k = item.k.shape[1]
    sinks = np.arange(min(item.sink_tokens, s_k))
    cols = max(np.union1d(ix, sinks).size for ix in item.kv_indices)
    bq = min(_BAND_ROWS, s_q)
    width = max(item.window, _DENSE_SPAN if item.dense_last_rows else 0)
    span = min(width + bq - 1, s_k)
    floats = (
        h * s_q * d  # q
        + 2 * h * s_q  # l, m
        + 2 * cols * d  # k_cols, v_cols: the gathered K[I_KV] / V[I_KV]
        + min(_STRIPE_ROWS, s_q) * cols  # s_cols: one row block
        + 2 * h * bq * d  # q_band, pv_band
        + h * bq * span  # s_band
    )
    return 4 * floats


class _GathersThePrefix(KernelWorkspace):
    """Seeded mutation: gather scratch sized by ``S_k`` instead of
    ``|I_KV|`` -- what a kernel that copies the whole prefix would hold."""

    def __init__(self, s_k):
        super().__init__()
        self.s_k = s_k

    def take(self, key, shape, dtype=np.float32):
        if key in ("k_cols", "v_cols"):
            return super().take(key, (self.s_k, shape[1]), dtype)[: shape[0]]
        return super().take(key, shape, dtype)


class _ScoresEveryRowAtOnce(KernelWorkspace):
    """Seeded mutation: stripe score scratch sized by ``S_q`` instead of
    one row block -- what the un-blocked ``S_q x |I_KV|`` GEMM held."""

    def __init__(self, s_q):
        super().__init__()
        self.s_q = s_q

    def take(self, key, shape, dtype=np.float32):
        if key == "s_cols":
            return super().take(key, (self.s_q, shape[1]), dtype)[: shape[0]]
        return super().take(key, shape, dtype)


class TestPackedWorkspaceBound:
    """Scratch follows what the plan kept, on the geometry the engine
    dispatches -- one 256-row chunk against a 4096-token prefix -- and on
    the library's one-shot ``S_q = S_k = 4096`` call -- and, for an
    all-rows-dense item (``flash_attention``), does not follow ``S_k``.

    The bound is on the caller's workspace, which holds every q-block's
    scratch only when blocks run inline; pooled dense blocks use their
    thread's workspace (bounded in ``TestPooledDenseBlocks``)."""

    @pytest.fixture(autouse=True)
    def _inline(self):
        with pool._forced_workers(1):
            yield

    def _chunk(self, rng, s_q, s_k):
        return _item(rng, 8, s_q, s_k, 64, h_kv=2, window=-(-s_k * 8 // 100),
                     stripes=0.1, block_size=64, sink_tokens=4)[0]

    def test_bytes_bounded_by_the_items_shapes(self, rng):
        big, small = self._chunk(rng, 256, 4096), self._chunk(rng, 64, 1024)
        ws = KernelWorkspace()
        packed_block_sparse_attention([big], workspace=ws)
        held, warm = ws.nbytes, ws.allocations
        assert 0 < held <= _workspace_bound(big)
        # The same warm workspace serves a smaller item without growing.
        packed_block_sparse_attention([small], workspace=ws)
        assert (ws.nbytes, ws.allocations) == (held, warm)
        cold = KernelWorkspace()
        packed_block_sparse_attention([small], workspace=cold)
        assert cold.nbytes <= _workspace_bound(small) < held

    def test_gathering_the_prefix_breaks_the_bound(self, rng):
        big = self._chunk(rng, 256, 4096)
        ws = _GathersThePrefix(4096)
        got = packed_block_sparse_attention([big], workspace=ws).results[0]
        ref = packed_block_sparse_attention([big]).results[0]
        np.testing.assert_array_equal(got.output, ref.output)
        assert ws.nbytes > _workspace_bound(big)


    def test_one_shot_scratch_bounded_by_one_row_block(self, rng):
        one_shot = self._chunk(rng, 4096, 4096)
        ws = KernelWorkspace()
        packed_block_sparse_attention([one_shot], workspace=ws)
        assert 0 < ws.nbytes <= _workspace_bound(one_shot)

    def test_scoring_every_row_at_once_breaks_the_bound(self, rng):
        one_shot = self._chunk(rng, 4096, 4096)
        ws = _ScoresEveryRowAtOnce(4096)
        got = packed_block_sparse_attention([one_shot], workspace=ws).results[0]
        ref = packed_block_sparse_attention([one_shot]).results[0]
        np.testing.assert_array_equal(got.output, ref.output)
        assert ws.nbytes > _workspace_bound(one_shot)

    def test_dense_item_scratch_does_not_grow_with_the_prefix(self, rng):
        h, h_kv, d, s_q = 8, 2, 64, 256
        ws = KernelWorkspace()
        held = []
        for s_k in (4096, 8192):
            q = rng.standard_normal((h, s_q, d), dtype=np.float32)
            k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
            v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
            item = PackedItem.dense(q, k, v)
            got = packed_block_sparse_attention([item], workspace=ws).results[0]
            assert (got.computed_elements == total_causal_elements(s_q, s_k)).all()
            assert got.element_density == 1.0 and got.density == 1.0
            held.append(ws.nbytes)
        # Closed form with no S_k in it: q, l, m, the 64-row q/pv blocks
        # and one (64 x (_DENSE_SPAN + 63)) score block per head.
        bound = 4 * (h * s_q * (d + 2)
                     + h * _BAND_ROWS * (2 * d + _DENSE_SPAN + _BAND_ROWS - 1))
        assert held[0] == held[1] <= bound == _workspace_bound(item)

    def test_one_span_as_wide_as_the_prefix_breaks_the_bound(self, rng, monkeypatch):
        q = rng.standard_normal((8, 256, 64), dtype=np.float32)
        k = rng.standard_normal((2, 8192, 64), dtype=np.float32)
        v = rng.standard_normal((2, 8192, 64), dtype=np.float32)
        item = PackedItem.dense(q, k, v)
        ref = packed_block_sparse_attention([item]).results[0]
        # Seeded mutation: the dense rows' single (0, s_k) span.
        monkeypatch.setattr(packed_mod, "_DENSE_SPAN", 8192)
        ws = KernelWorkspace()
        got = packed_block_sparse_attention([item], workspace=ws).results[0]
        np.testing.assert_allclose(got.output, ref.output, atol=TOLERANCE)
        assert ws.nbytes > _workspace_bound(item)


def _dense_qkv(rng, s_q, s_k, n_rep, h_kv=2, d=16):
    q = rng.standard_normal((h_kv * n_rep, s_q, d), dtype=np.float32)
    k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
    return q, k, v


def _run(items, workers):
    with pool._forced_workers(workers):
        return packed_block_sparse_attention(items, workspace=KernelWorkspace())


class TestPooledDenseBlocks:
    """Dense q-blocks are pool units: spreading them over threads computes
    the same bits, counts and stats as running them inline."""

    @pytest.mark.parametrize("n_rep", [1, 2, 4])
    @pytest.mark.parametrize("s_q", [1, 63, 64, 256])
    @pytest.mark.parametrize(
        "s_k_spans", [0.5, 1.0, 1.1, 2.0, 2.7], ids=lambda f: f"{f}x_span"
    )
    def test_pooled_is_bitwise_inline(self, rng, n_rep, s_q, s_k_spans):
        s_k = max(s_q, int(s_k_spans * _DENSE_SPAN))
        q, k, v = _dense_qkv(rng, s_q, s_k, n_rep)
        for gain in (1.0, 30.0):  # plain and stabilised softmax
            item = PackedItem.dense(q * np.float32(gain), k, v)
            inline = _run([item], 1)
            for workers in (2, 3):
                pooled = _run([item], workers)
                got, ref = pooled.results[0], inline.results[0]
                assert np.array_equal(got.output, ref.output)
                assert np.array_equal(got.computed_elements, ref.computed_elements)
                assert pooled.stats == inline.stats

    def test_one_shot_4096(self, rng):
        q, k, v = _dense_qkv(rng, 4096, 4096, 2)
        item = PackedItem.dense(q, k, v)
        inline = _run([item], 1).results[0]
        pooled = _run([item], 2).results[0]
        assert np.array_equal(pooled.output, inline.output)
        assert (pooled.computed_elements == total_causal_elements(4096, 4096)).all()

    def test_dense_last_rows_of_a_sparse_item(self, rng):
        # The pooled dense rows share the item's accumulators with the
        # inline stripe and band rows; a dense item rides in the batch.
        sparse, _ = _item(rng, 4, 300, 1500, 16, h_kv=2, window=40,
                          stripes=0.1, dense_last_rows=200, bands=[(90, 120)])
        dense = PackedItem.dense(*_dense_qkv(rng, 130, 1100, 2))
        inline = _run([sparse, dense], 1)
        pooled = _run([dense, sparse], 2)
        for a, b in zip(inline.results, pooled.results[::-1]):
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.computed_elements, b.computed_elements)

    def test_thread_workspaces_stop_growing_once_warm(self, rng, monkeypatch):
        q, k, v = _dense_qkv(rng, 1024, 3000, 2)
        item = PackedItem.dense(q, k, v)
        ws = KernelWorkspace()
        # Fresh helper threads, so their scratch starts cold.
        monkeypatch.setattr(pool, "_tasks", queue.SimpleQueue())
        monkeypatch.setattr(pool, "_helpers", [])
        mark = len(packed_mod._thread_workspaces)
        with pool._forced_workers(3):
            packed_block_sparse_attention([item], workspace=ws)
            warm = [(w, w.allocations)
                    for w in packed_mod._thread_workspaces[mark:]]
            for _ in range(3):
                packed_block_sparse_attention([item], workspace=ws)
            again = [(w, w.allocations)
                     for w in packed_mod._thread_workspaces[mark:]]
        assert warm, "the dense blocks did not run on the pool"
        assert again == warm
        # One q-block's scratch: q and PV blocks, one span of scores.
        h, d = q.shape[0], q.shape[2]
        block = 4 * h * _BAND_ROWS * (2 * d + _DENSE_SPAN + _BAND_ROWS - 1)
        assert all(0 < w.nbytes <= block for w, _ in warm)


#: (S_q, S_k) of a ragged dispatch: three items over ``_ITEM_UNIT_WORK``
#: (153600, 143000 and 400000 score entries), two under it.
_ITEM_SHAPES = [(256, 600), (64, 700), (130, 1100), (1, 300), (200, 2000)]


class TestPooledItems:
    """When at least two items of a dispatch clear the work floor, whole
    items are the pool's units, largest first: every item still gets the
    bits, counts and stats of inline execution, in any batch order."""

    def _dispatch(self, rng, n_rep, gain=1.0):
        items = []
        for j, (s_q, s_k) in enumerate(_ITEM_SHAPES):
            item, _ = _item(
                rng, 2 * n_rep, s_q, s_k, 16, h_kv=2,
                window=max(1, s_k // (8 + j)), stripes=0.1, sink_tokens=4,
                dense_last_rows=(0, 5, 0, 1, 64)[j],
                bands=[(s_k // 3, s_k // 3 + 20)] if j % 2 else None,
            )
            items.append(dataclasses.replace(item, q=item.q * np.float32(gain)))
        assert sum(s_q * s_k >= packed_mod._ITEM_UNIT_WORK
                   for s_q, s_k in _ITEM_SHAPES) == 3
        return items

    @pytest.mark.parametrize("n_rep", [1, 2, 4])
    @pytest.mark.parametrize("gain", [1.0, 30.0], ids=["plain", "stabilised"])
    def test_pooled_is_bitwise_inline(self, rng, monkeypatch, n_rep, gain):
        items = self._dispatch(rng, n_rep, gain)
        inline = _run(items, 1)
        ran_on = record_threads(
            monkeypatch, packed_mod, "_execute_item", await_helper=True)
        # Item order and largest-first order disagree in every batch, so
        # results stored in completion order would land on the wrong item.
        for workers, order in ((2, [0, 1, 2, 3, 4]), (2, [3, 1, 4, 0, 2]),
                               (3, [4, 3, 2, 1, 0])):
            pooled = _run([items[j] for j in order], workers)
            for slot, j in enumerate(order):
                got, ref = pooled.results[slot], inline.results[j]
                assert np.array_equal(got.output, ref.output)
                assert np.array_equal(got.computed_elements, ref.computed_elements)
                assert np.array_equal(got.visited_blocks, ref.visited_blocks)
            assert pooled.stats == inline.stats
        assert set(ran_on) - {threading.current_thread().name}, (
            "no item ran on the pool")

    def test_pooled_under_contention(self, rng):
        # More workers than cores and a 1 us switch interval: a unit that
        # wrote outside its own item, or scratch two threads shared, shows.
        items = self._dispatch(rng, 2, 30.0)
        inline = _run(items, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = _run(items, 8)
        finally:
            sys.setswitchinterval(interval)
        for got, ref in zip(pooled.results, inline.results):
            assert np.array_equal(got.output, ref.output)
            assert np.array_equal(got.computed_elements, ref.computed_elements)

    def test_one_item_over_the_floor_stays_inline(self, rng, monkeypatch):
        items = self._dispatch(rng, 2)
        ran_on = record_threads(monkeypatch, packed_mod, "_execute_item")
        _run([items[1], items[3], items[0]], 2)
        assert set(ran_on) == {threading.current_thread().name}

    def test_mask_terms_are_built_before_any_item_runs(self, rng, monkeypatch):
        # Items on helpers only read the dispatch's band terms; one built
        # lazily on a helper would race the caller's dict.
        items = self._dispatch(rng, 2)
        ran_on = record_threads(
            monkeypatch, packed_mod, "_execute_item", await_helper=True)
        built_on = record_threads(monkeypatch, packed_mod, "_window_dead")
        _run(items, 2)
        caller = threading.current_thread().name
        assert set(ran_on) - {caller}, "no item ran on the pool"
        assert built_on and set(built_on) == {caller}

    def test_helper_workspaces_stop_allocating_once_warm(self, rng, monkeypatch):
        # One plan for every item, so whichever thread runs whichever item
        # needs the same scratch; dense last rows run inside the unit.
        _, plan = _item(rng, 4, 256, 1100, 16, h_kv=2, window=90,
                        stripes=0.2, sink_tokens=4, dense_last_rows=64)
        items = [
            PackedItem.from_plan(*_dense_qkv(rng, 256, 1100, 2), plan)
            for _ in range(4)
        ]
        ws = KernelWorkspace()
        monkeypatch.setattr(pool, "_tasks", queue.SimpleQueue())
        monkeypatch.setattr(pool, "_helpers", [])
        mark = len(packed_mod._thread_workspaces)
        with pool._forced_workers(2):
            for _ in range(2):
                packed_block_sparse_attention(items, workspace=ws)
            warm = [(w, w.allocations)
                    for w in packed_mod._thread_workspaces[mark:]]
            for _ in range(3):
                packed_block_sparse_attention(items, workspace=ws)
            again = [(w, w.allocations)
                     for w in packed_mod._thread_workspaces[mark:]]
        assert warm, "no helper ran an item on its own workspace"
        assert again == warm
        assert all(0 < w.nbytes <= _workspace_bound(items[0]) for w, _ in warm)

    @pytest.mark.parametrize("return_probs", [False, True])
    def test_decode_pooled_is_bitwise_inline(self, rng, monkeypatch, return_probs):
        # Caches on both sides of _DECODE_UNIT_KEYS, one exactly at it.
        lengths = [300, packed_mod._DECODE_UNIT_KEYS, 2100, 700, 1500, 1]
        items = [
            PackedDecodeItem(q=q, k=k, v=v)
            for q, k, v in (_dense_qkv(rng, 1, s_k, 2) for s_k in lengths)
        ]

        def run(batch, workers):
            with pool._forced_workers(workers):
                return packed_decode_attention(batch, return_probs=return_probs)

        inline = run(items, 1)
        ran_on = record_threads(
            monkeypatch, packed_mod, "decode_row_attention", await_helper=True)
        for workers, order in ((2, [0, 1, 2, 3, 4, 5]), (3, [5, 3, 1, 0, 4, 2])):
            pooled = run([items[j] for j in order], workers)
            for slot, j in enumerate(order):
                assert np.array_equal(pooled.outputs[slot], inline.outputs[j])
                if return_probs:
                    assert np.array_equal(pooled.probs[slot], inline.probs[j])
            assert pooled.stats == inline.stats
        assert set(ran_on) - {threading.current_thread().name}, (
            "no decode item ran on the pool")

    def test_short_caches_decode_inline(self, rng, monkeypatch):
        items = [PackedDecodeItem(*_dense_qkv(rng, 1, s_k, 2))
                 for s_k in (272, 412, 1500, 272)]
        ran_on = record_threads(monkeypatch, packed_mod, "decode_row_attention")
        with pool._forced_workers(2):
            packed_decode_attention(items)
        assert set(ran_on) == {threading.current_thread().name}


class TestPackedValidation:
    def test_mismatched_heads_rejected(self, rng):
        a, _ = _item(rng, 4, 16, 32, 8)
        b, _ = _item(rng, 2, 16, 32, 8)
        with pytest.raises(ShapeError):
            packed_block_sparse_attention([a, b])

    def test_mismatched_mask_geometry_rejected(self, rng):
        a, _ = _item(rng, 4, 16, 32, 8)
        other = hand_built_plan(random_stripes(rng, 4, 48, 0.1), 16, 48, window=8)
        bad = PackedItem(
            q=a.q, k=a.k, v=a.v, window=a.window, kv_indices=a.kv_indices,
            mask=other.to_block_mask(),
        )
        with pytest.raises(MaskError):
            packed_block_sparse_attention([bad])

    def test_bad_plan_geometry_rejected(self, rng):
        a, plan = _item(rng, 4, 16, 32, 8)
        for bad in (
            dict(window=0),
            dict(kv_indices=a.kv_indices[:3]),
            dict(kv_indices=[np.asarray([32])] * 4),
        ):
            fields = dict(q=a.q, k=a.k, v=a.v, window=a.window,
                          kv_indices=a.kv_indices, mask=a.mask)
            with pytest.raises(MaskError):
                packed_block_sparse_attention([PackedItem(**{**fields, **bad})])

    @pytest.mark.parametrize(
        "h,window,idx,error",
        [
            (1, 0, [[]], (ConfigError, MaskError)),
            (2, 4, [[]], MaskError),
            (1, 4, [[16]], MaskError),
        ],
        ids=["zero_window", "wrong_head_count", "out_of_range_indices"],
    )
    def test_bad_hand_built_plan_rejected(self, rng, h, window, idx, error):
        q, k, v = random_qkv(rng, h=h, s=16, d=4)
        with pytest.raises(error):
            plan = hand_built_plan(idx, 16, 16, window=window)
            packed_block_sparse_attention([PackedItem.from_plan(q, k, v, plan)])
