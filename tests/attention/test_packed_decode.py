"""``packed_decode_attention``: serial execution, validation, empty batch,
and the kernel's numerics at serving cache lengths.

Batch invariance over generated ragged batches is pinned by
``tests/properties/test_property_decode_invariance.py``.
"""

import concurrent.futures
import inspect
import threading

import numpy as np
import pytest

import repro.attention.packed as packed
from repro.attention import dense_attention
from repro.attention import utils as attention_utils
from repro.attention.packed import PackedDecodeItem, packed_decode_attention
from repro.audit.oracles import check_decode_batch
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
    assert res.stats == {"decode_requests": 2, "kv_tokens": 14}


def test_empty_batch_is_one_dispatch():
    res = packed_decode_attention([], return_probs=True)
    assert res.outputs == [] and res.probs == []
    assert res.stats == {"decode_requests": 0, "kv_tokens": 0}


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


# ---------------------------------------------------------------------------
# Serving geometry.  The decode GEMMs change BLAS regime near S_k ~ 700 (the
# small-matrix path ends), so the kernel's contract is re-asserted on both
# sides of it, on the cache layout serving hands over: K/V are the live
# prefixes of over-allocated buffers whose spare capacity is NaN -- a kernel
# that reads past S_k, or scores a copy of the padded buffer, poisons its
# output.
# ---------------------------------------------------------------------------

SERVING_GRID = [
    (s_k, n_rep, d)
    for s_k in (1, 63, 600, 801, 2048, 4097)
    for n_rep in (1, 2, 4)
    for d in (16, 80)
]
H_KV = 2
#: float32 weights below this are denormal.
TINY = np.finfo(np.float32).tiny


def _padded_cache(live: np.ndarray) -> np.ndarray:
    """``live (H_kv, S_k, d)`` as the prefix view of a NaN-tailed buffer."""
    h_kv, s_k, d = live.shape
    buf = np.full((h_kv, s_k + 5, d), np.nan, dtype=np.float32)
    buf[:, :s_k] = live
    return buf[:, :s_k]


def _gaussian_qkv(rng, s_k, n_rep, d):
    return (
        rng.standard_normal((H_KV * n_rep, 1, d), dtype=np.float32),
        rng.standard_normal((H_KV, s_k, d), dtype=np.float32),
        rng.standard_normal((H_KV, s_k, d), dtype=np.float32),
    )


def _wide_qkv(rng, s_k, n_rep, d):
    """Scores (already scaled) running from +800 down to -800 along the
    cache, per head at a slightly different pitch: the row max is far from
    0 and every row crosses the band 87-104 below it, where an unclamped
    float32 ``exp`` returns denormals."""
    u = rng.standard_normal((H_KV, d)).astype(np.float32)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    pitch = 1.0 - 0.1 * np.arange(n_rep, dtype=np.float32)
    q = (u[:, None, :] * pitch[None, :, None]).reshape(H_KV * n_rep, 1, d)
    q = q * np.float32(np.sqrt(d))  # the kernel's default scale is 1/sqrt(d)
    ramp = np.linspace(800.0, -800.0, s_k, dtype=np.float32)
    k = u[:, None, :] * ramp[None, :, None]
    k += 0.01 * rng.standard_normal(k.shape, dtype=np.float32)
    return q, k, rng.standard_normal((H_KV, s_k, d), dtype=np.float32)


def _integer_qkv(rng, s_k, n_rep, d):
    """Scaled scores that are exactly the integers +100 down to -100 along
    the cache (q and k on one axis; ``d`` a power of 4, so the scale
    ``1/sqrt(d)`` is exact): kernel and oracle agree to the rounding of
    ``exp`` alone, while every row still crosses the band 87-104 below its
    max and would overflow an ``exp`` taken without the max subtracted."""
    q = np.zeros((H_KV * n_rep, 1, d), dtype=np.float32)
    q[..., 0] = np.sqrt(d)
    k = np.zeros((H_KV, s_k, d), dtype=np.float32)
    k[..., 0] = np.round(np.linspace(100.0, -100.0, s_k))
    return q, k, rng.standard_normal((H_KV, s_k, d), dtype=np.float32)


def _served(make_qkv, s_k, n_rep, d):
    """The case as decode items, once per query dtype, K/V handed over as
    NaN-padded cache views."""
    for q_dtype in (np.float32, np.float64):
        q, k, v = make_qkv(np.random.default_rng(s_k + n_rep), s_k, n_rep, d)
        yield PackedDecodeItem(
            q=q.astype(q_dtype), k=_padded_cache(k), v=_padded_cache(v)
        )


def _assert_wide_contract(s_k, n_rep, d):
    for it in _served(_wide_qkv, s_k, n_rep, d):
        res = packed_decode_attention([it], return_probs=True)
        out, probs = res.outputs[0], res.probs[0]
        assert np.isfinite(out).all() and np.isfinite(probs).all()
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-6
        # Read off the normalised weights: the row sum lies in [1, S_k], so
        # a clamped weight stays normal after the division (exp(-60) / 4097
        # ~ 2e-30) and an unclamped denormal stays below TINY.
        assert np.all((probs == 0) | (probs >= TINY))
        oracle = dense_attention(
            it.q.astype(np.float32), it.k, it.v, causal=False, return_probs=True
        )
        # Scores of magnitude 800 carry float32 rounding of ~1e-4 into the
        # exponent, so the oracle is matched to 1e-3 here, not 2e-5.
        assert np.abs(out - oracle.output).max() <= 1e-3
        # ...and the rows did reach the band the clamp exists for.
        if s_k >= 600:
            assert ((oracle.probs > 0) & (oracle.probs < TINY)).any()


@pytest.mark.parametrize("s_k,n_rep,d", SERVING_GRID)
def test_gaussian_scores_match_dense_at_serving_lengths(s_k, n_rep, d):
    for it in _served(_gaussian_qkv, s_k, n_rep, d):
        result = check_decode_batch([it])
        assert result.passed, result.detail


@pytest.mark.parametrize("s_k,n_rep,d", SERVING_GRID)
def test_wide_scores_stay_finite_normalised_and_denormal_free(s_k, n_rep, d):
    _assert_wide_contract(s_k, n_rep, d)


def _reads_one_key_past_the_view(real):
    """Score against ``k[:, :S_k + 1]`` (and weigh ``v`` likewise)."""

    def one_more(x):
        h_kv, s_k, d = x.shape
        return np.lib.stride_tricks.as_strided(
            x, shape=(h_kv, s_k + 1, d), strides=x.strides
        )

    def mutant(q, k, v, scale, *, return_probs=False):
        out, probs = real(q, one_more(k), one_more(v), scale, return_probs=return_probs)
        return out, None if probs is None else probs[..., :-1]

    return mutant


def _without_line(line):
    """The kernel re-compiled from its own source minus one statement."""

    def mutation(real):
        source = inspect.getsource(real)
        assert source.count(line) == 1, f"kernel no longer contains {line!r}"
        namespace = dict(vars(attention_utils))
        exec(  # noqa: S102 - the library's own source, one line replaced
            "from __future__ import annotations\n" + source.replace(line, "pass"),
            namespace,
        )
        return namespace[real.__name__]

    return mutation


class TestServingGeometryGateCatchesSeededMutations:
    """The decode contract (``check_decode_batch``) must fail a kernel that
    is slightly wrong in the ways the layout and the score range exist to
    expose, and so must the wide-score contract above for the two numerics
    mutations."""

    GRID = [(801, 2, 80), (2048, 4, 16)]
    #: Head dim of the integer-score items: a power of 4, so their scale
    #: is exact whatever the grid case's ``d``.
    INTEGER_D = 16

    def _decode_failures(self):
        # Per grid case one batch of Gaussian items and one of integer-score
        # items, both query dtypes, on NaN-padded cache views; the case
        # fails when either batch does.
        failed = 0
        for s_k, n_rep, d in self.GRID:
            batches = (
                list(_served(_gaussian_qkv, s_k, n_rep, d)),
                list(_served(_integer_qkv, s_k, n_rep, self.INTEGER_D)),
            )
            failed += not all(check_decode_batch(b).passed for b in batches)
        return failed

    def _wide_failures(self):
        failed = 0
        for case in self.GRID:
            try:
                _assert_wide_contract(*case)
            except AssertionError:
                failed += 1
        return failed

    def test_unmutated_kernel_passes(self):
        assert self._decode_failures() == 0
        assert self._wide_failures() == 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "mutation,wide",
        [
            (_reads_one_key_past_the_view, False),
            (_without_line("s -= s.max(axis=-1, keepdims=True)"), True),
            (_without_line("np.maximum(s, _EXP_CLAMP, out=s)"), True),
        ],
        ids=["reads_past_s_k", "no_row_max_subtraction", "no_clamp"],
    )
    def test_mutation_is_caught(self, monkeypatch, mutation, wide):
        monkeypatch.setattr(
            packed, "decode_row_attention", mutation(packed.decode_row_attention)
        )
        assert self._decode_failures() == len(self.GRID)
        if wide:
            assert self._wide_failures() == len(self.GRID)
