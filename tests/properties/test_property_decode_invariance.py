"""Property test: packed decode attention is batch-invariant.

The decode contract is not "bitwise equal to ``dense_attention``" but
**batch invariance**: an item's output and probabilities are a function
of that item alone, so they are bitwise the same dispatched alone or
inside any permutation of a ragged batch -- which is what lets a request
join and leave decode batches by measured time without its tokens
changing -- plus float32 tolerance against the masked-dense oracle: the
decode contract of ``repro.audit.oracles.check_decode_batch``, the check
the audit's ``packed_decode`` area calls too.

Items are built the way serving builds them: K/V are the live prefixes
of over-allocated caches (strided views), on the contiguous backend and
on the paged backend with interleaved appends so block tables fragment
and reads come from both the arena view and the mirror.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention.packed import PackedDecodeItem, packed_decode_attention
from repro.audit.oracles import check_decode_batch
from repro.memory import KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H_KV, D, BLOCK_TOKENS = 2, 16, 16


def _caches(backend: str, lengths: list[int]):
    if backend == "contiguous":
        return [LayerKVCache(H_KV, D, capacity=n + 5) for n in lengths]
    blocks = sum(-(-n // BLOCK_TOKENS) for n in lengths) + len(lengths)
    arena = KVArena(blocks, H_KV, BLOCK_TOKENS, D)
    return [PagedLayerKVCache(arena) for _ in lengths]


def _items(rng, backend: str, lengths: list[int], n_rep: int):
    caches = _caches(backend, lengths)
    # Two interleaved append rounds: on the paged backend every cache but
    # a single-block one ends up with a non-ascending block table.
    done = [0] * len(lengths)
    for share in (2, 1):
        for i, (cache, n) in enumerate(zip(caches, lengths)):
            upto = n if share == 1 else n // 2
            if upto > done[i]:
                m = upto - done[i]
                cache.append(
                    rng.standard_normal((H_KV, m, D), dtype=np.float32),
                    rng.standard_normal((H_KV, m, D), dtype=np.float32),
                    np.arange(done[i], upto, dtype=np.int64),
                )
                done[i] = upto
    items = []
    for cache in caches:
        q = rng.standard_normal((H_KV * n_rep, 1, D), dtype=np.float32)
        items.append(PackedDecodeItem(q=q, k=cache.keys, v=cache.values))
    return items


def _check(items) -> None:
    result = check_decode_batch(items)
    assert result.passed, result.detail


def _assert_alone_equals_permutation(seed, lengths, n_rep, backend, data):
    rng = np.random.default_rng(seed)
    items = _items(rng, backend, lengths, n_rep)
    if backend == "contiguous":
        assert not items[0].k.flags.c_contiguous  # a strided view
    order = data.draw(st.permutations(range(len(items))))
    _check([items[j] for j in order])


class TestBatchInvariance:
    @given(
        seed=st.integers(0, 10_000),
        lengths=st.lists(st.integers(1, 600), min_size=1, max_size=9),
        n_rep=st.sampled_from([1, 2, 4]),
        backend=st.sampled_from(["contiguous", "paged"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_alone_equals_any_permutation(
        self, seed, lengths, n_rep, backend, data
    ):
        _assert_alone_equals_permutation(seed, lengths, n_rep, backend, data)

    @given(
        seed=st.integers(0, 10_000),
        short=st.lists(st.integers(1, 600), min_size=1, max_size=4),
        long=st.lists(
            st.sampled_from([801, 2048, 4097]), min_size=1, max_size=2
        ),
        n_rep=st.sampled_from([1, 2, 4]),
        backend=st.sampled_from(["contiguous", "paged"]),
        data=st.data(),
    )
    @settings(max_examples=12, deadline=None)
    def test_serving_length_item_in_a_mixed_batch(
        self, seed, short, long, n_rep, backend, data
    ):
        # Serving co-schedules 100-token and 4K-token caches in one decode
        # dispatch; past S_k ~ 700 the kernel's GEMMs run in another BLAS
        # regime than the short items next to them.
        _assert_alone_equals_permutation(
            seed, short + long, n_rep, backend, data
        )

    def test_single_key(self):
        rng = np.random.default_rng(0)
        items = _items(rng, "contiguous", [1, 7], n_rep=2)
        _check(items)
        res = packed_decode_attention(items, return_probs=True)
        # One key: the row's whole mass sits on it, the output is its value.
        np.testing.assert_array_equal(res.probs[0], np.ones((4, 1, 1)))
        np.testing.assert_array_equal(
            res.outputs[0][:, 0], np.repeat(items[0].v[:, 0], 2, axis=0)
        )

    def test_float64_query(self):
        rng = np.random.default_rng(1)
        f32 = _items(rng, "contiguous", [33, 120], n_rep=2)
        items = [
            PackedDecodeItem(q=it.q.astype(np.float64), k=it.k, v=it.v)
            for it in f32
        ]
        _check(items)  # outputs in the query's dtype included
        assert packed_decode_attention(items).outputs[0].dtype == np.float64
