"""Property test: packed prefill attention is batch-invariant.

The serving engine has one sparse prefill executor: a per-request chunk is
a packed batch of one.  That only keeps a request's tokens independent of
who it was co-scheduled with if an item's output and visited-tile counts
are a function of that item alone -- bitwise the same dispatched alone or
inside any permutation of a ragged batch (shared workspace, shared
pattern caches and all) -- plus float32 tolerance against the masked-dense
oracle of the same mask.  Large-norm queries force the stabilised softmax
path; the rest take the plain-exp path.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention import (
    KernelWorkspace,
    dense_attention,
    packed_block_sparse_attention,
    random_block_mask,
    window_block_mask,
)
from repro.attention.packed import _PLAIN_EXP_BOUND, PackedItem

TOLERANCE = 2e-5
H_KV, D, BLOCK = 2, 16, 32

_geometry = st.sampled_from([64, 96, 200, 256]).flatmap(
    lambda s_q: st.tuples(st.just(s_q), st.integers(max(s_q, 64), 1500))
)


def _item(rng, s_q: int, s_k: int, n_rep: int, hot: bool, density: float):
    h = H_KV * n_rep
    q = rng.standard_normal((h, s_q, D), dtype=np.float32)
    k = rng.standard_normal((H_KV, s_k, D), dtype=np.float32)
    v = rng.standard_normal((H_KV, s_k, D), dtype=np.float32)
    if hot:
        q *= np.float32(16.0)
    # The serving shape: a local window band plus scattered stripe tiles.
    mask = window_block_mask(h, s_q, s_k, BLOCK, 2 * BLOCK) | random_block_mask(
        h, s_q, s_k, BLOCK, density, rng
    )
    return PackedItem(q=q, k=k, v=v, mask=mask)


def _stabilised(item) -> bool:
    qf = item.q * np.float32(1.0 / np.sqrt(D))
    q_norm = np.sqrt(np.einsum("hsd,hsd->hs", qf, qf).max())
    k_norm = np.sqrt(np.einsum("hsd,hsd->hs", item.k, item.k).max())
    return bool(q_norm * k_norm >= _PLAIN_EXP_BOUND)


class TestBatchInvariance:
    @given(
        seed=st.integers(0, 10_000),
        geometries=st.lists(_geometry, min_size=1, max_size=6),
        n_rep=st.sampled_from([1, 2, 4]),
        hot=st.lists(st.booleans(), min_size=6, max_size=6),
        density=st.sampled_from([0.0, 0.1, 0.4]),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_alone_equals_any_permutation(
        self, seed, geometries, n_rep, hot, density, data
    ):
        rng = np.random.default_rng(seed)
        items = [
            _item(rng, s_q, s_k, n_rep, hot[i], density)
            for i, (s_q, s_k) in enumerate(geometries)
        ]
        for it, is_hot in zip(items, hot):
            assert _stabilised(it) == is_hot
        alone = [packed_block_sparse_attention([it]).results[0] for it in items]
        order = data.draw(st.permutations(range(len(items))))
        res = packed_block_sparse_attention(
            [items[j] for j in order], workspace=KernelWorkspace()
        )
        assert res.cu_seqlens.tolist() == np.cumsum(
            [0] + [geometries[j][0] for j in order]
        ).tolist()
        for slot, j in enumerate(order):
            got, it = res.results[slot], items[j]
            np.testing.assert_array_equal(got.output, alone[j].output)
            np.testing.assert_array_equal(
                got.visited_blocks, alone[j].visited_blocks
            )
            oracle = dense_attention(
                it.q, it.k, it.v, mask=it.mask.to_dense()
            ).output
            assert np.abs(got.output - oracle).max() <= TOLERANCE

    def test_warm_workspace_does_not_leak_between_items(self):
        """A workspace warmed by a larger item leaves stale scratch behind;
        a smaller item run after it must still match its solo output."""
        rng = np.random.default_rng(3)
        big = _item(rng, 256, 1400, 2, True, 0.4)
        small = _item(rng, 64, 130, 2, False, 0.1)
        ws = KernelWorkspace()
        packed_block_sparse_attention([big], workspace=ws)
        warm = packed_block_sparse_attention([small], workspace=ws).results[0]
        cold = packed_block_sparse_attention([small]).results[0]
        np.testing.assert_array_equal(warm.output, cold.output)
