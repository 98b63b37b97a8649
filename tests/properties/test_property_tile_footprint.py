"""Property tests for the tile accounting the serving engine bills.

The engine bills each executed plan by its tile footprint,
``plan.to_block_mask().active_blocks()``.  The packed kernel once computed
that footprint itself, keeping only the tiles reachable from each q-block's
last row; plan masks are causal by construction, so that filter is the
identity on them.  :func:`_reachable_tiles` keeps the kernel's formula as
the reference, held against hand-built and planned plans on ragged
geometries.  Dense causal attention's tile count has one definition,
:func:`~repro.attention.utils.total_causal_blocks`, pinned against the
causal grid and the per-q-block loop it replaced.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attention.masks import _causal_grid, causal_block_mask
from repro.attention.utils import total_causal_blocks
from repro.audit.oracles import hand_built_plan
from repro.config import SampleAttentionConfig
from repro.core import plan_sample_attention

SETTINGS = dict(max_examples=60, deadline=None)


def _reachable_tiles(mask) -> np.ndarray:
    """Per-head tiles of ``mask`` reachable from each q-block's last row
    (right-aligned queries) -- the footprint formula the packed kernel
    used to apply to every item's mask."""
    b, s_q, s_k = mask.block_size, mask.s_q, mask.s_k
    nq, nk = mask.blocks.shape[1:]
    q_last = np.minimum((np.arange(nq) + 1) * b, s_q) - 1 + (s_k - s_q)
    reachable = np.arange(nk)[None, :] < np.minimum(nk, q_last // b + 1)[:, None]
    return (mask.blocks & reachable[None]).sum(axis=(1, 2)).astype(np.int64)


def _causal_blocks_loop(s_q: int, s_k: int, block_size: int) -> int:
    """Tiles a dense causal kernel visits, one q-block at a time -- the
    loop :func:`total_causal_blocks` replaced."""
    total = 0
    for qi in range(-(-s_q // block_size)):
        last_visible = min((qi + 1) * block_size, s_q) - 1 + (s_k - s_q)
        total += min(-(-s_k // block_size), last_visible // block_size + 1)
    return total


@st.composite
def _geometry(draw):
    """Ragged ``(s_q, s_k, block_size)`` with ``1 <= s_q <= s_k``."""
    s_k = draw(st.integers(1, 300))
    s_q = draw(st.integers(1, s_k))
    return s_q, s_k, draw(st.sampled_from([16, 32, 64]))


class TestPlanFootprint:
    @given(
        geometry=_geometry(),
        seed=st.integers(0, 10_000),
        h=st.sampled_from([1, 2, 4]),
        window_frac=st.floats(0.0, 1.0),
        stripe_share=st.floats(0.0, 0.5),
        sink_tokens=st.integers(0, 8),
        dense_frac=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]),
        banded=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_hand_built_plans(self, geometry, seed, h, window_frac,
                              stripe_share, sink_tokens, dense_frac, banded):
        s_q, s_k, block = geometry
        rng = np.random.default_rng(seed)
        stripes = [
            np.sort(rng.choice(s_k, size=int(stripe_share * s_k), replace=False))
            for _ in range(h)
        ]
        window = max(1, int(window_frac * s_k))
        bands = [(window + 3, window + 9)] if banded else ()
        plan = hand_built_plan(
            stripes, s_q, s_k, window=window, bands=bands, block_size=block,
            sink_tokens=sink_tokens, dense_last_rows=int(dense_frac * s_q),
        )
        tiles = plan.to_block_mask()
        np.testing.assert_array_equal(
            tiles.active_blocks(), _reachable_tiles(tiles)
        )

    @given(
        geometry=_geometry(),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.5, 0.9, 0.95]),
        sink_tokens=st.sampled_from([0, 4]),
        dense_last_rows=st.sampled_from([0, 1, 16]),
    )
    @settings(**SETTINGS)
    def test_planned_plans(self, geometry, seed, alpha, sink_tokens,
                           dense_last_rows):
        s_q, s_k, block = geometry
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((4, s_q, 8), dtype=np.float32)
        k = rng.standard_normal((2, s_k, 8), dtype=np.float32)
        cfg = SampleAttentionConfig(
            alpha=alpha, block_size=block, sink_tokens=sink_tokens,
            dense_last_rows=dense_last_rows,
        )
        tiles = plan_sample_attention(q, k, cfg).to_block_mask()
        np.testing.assert_array_equal(
            tiles.active_blocks(), _reachable_tiles(tiles)
        )


class TestOneCausalTileCount:
    @given(geometry=_geometry())
    @settings(**SETTINGS)
    def test_count_is_the_causal_grid(self, geometry):
        s_q, s_k, block = geometry
        n = total_causal_blocks(s_q, s_k, block)
        assert n == _causal_blocks_loop(s_q, s_k, block)
        assert n == int(_causal_grid(s_q, s_k, block).sum())
        causal = causal_block_mask(3, s_q, s_k, block)
        assert causal.active_blocks().tolist() == [n] * 3
        assert (_reachable_tiles(causal) == n).all()
        assert causal.density() == 1.0
