"""``packed_decode_attention``: serial execution, validation, empty batch.

Numerics (batch invariance, oracle tolerance, strided KV) are pinned by
``tests/properties/test_property_decode_invariance.py``.
"""

import concurrent.futures
import inspect
import threading

import numpy as np
import pytest

from repro.attention.packed import PackedDecodeItem, packed_decode_attention
from repro.errors import ShapeError


def _item(rng, s_k, h=4, h_kv=2, d=8):
    return PackedDecodeItem(
        q=rng.standard_normal((h, 1, d), dtype=np.float32),
        k=rng.standard_normal((h_kv, s_k, d), dtype=np.float32),
        v=rng.standard_normal((h_kv, s_k, d), dtype=np.float32),
    )


def test_runs_in_the_callers_thread(rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("decode attention must not build a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    res = packed_decode_attention(
        [_item(rng, s_k) for s_k in (3, 50, 17, 1)], return_probs=True
    )
    assert threading.active_count() == before
    assert len(res.outputs) == 4
    assert "threads" not in res.stats
    assert "num_threads" not in inspect.signature(
        packed_decode_attention
    ).parameters


def test_stats_and_offsets(rng):
    res = packed_decode_attention([_item(rng, 5), _item(rng, 9)])
    assert res.probs is None
    assert res.cu_seqlens.tolist() == [0, 5, 14]
    assert res.stats["dispatches"] == 1
    assert res.stats["decode_requests"] == res.stats["decode_rows"] == 2
    assert res.stats["kv_tokens"] == 14 and res.stats["s_k_max"] == 9


def test_empty_batch_is_one_dispatch():
    res = packed_decode_attention([], return_probs=True)
    assert res.outputs == [] and res.probs == []
    assert res.cu_seqlens.tolist() == [0]
    assert res.stats["dispatches"] == 1 and res.stats["kv_tokens"] == 0


@pytest.mark.parametrize(
    "bad",
    [
        dict(h=8),  # head count differs from the batch's
        dict(d=4),  # head dim differs
        dict(h_kv=1),  # KV head count differs
    ],
)
def test_rejects_items_of_another_geometry(rng, bad):
    with pytest.raises(ShapeError):
        packed_decode_attention([_item(rng, 6), _item(rng, 6, **bad)])


def test_rejects_multi_row_query(rng):
    it = _item(rng, 6)
    wide = PackedDecodeItem(q=np.concatenate([it.q, it.q], axis=1), k=it.k, v=it.v)
    with pytest.raises(ShapeError):
        packed_decode_attention([it, wide])
