"""Window + gathered-stripe attention on the one plan executor.

The behaviours the deleted ``striped_attention`` kernel was held to, with
:func:`packed_block_sparse_attention` (a batch of one) as the subject and
masked-dense attention as the oracle.
"""

import numpy as np
import pytest

from repro.attention import dense_attention, striped_element_counts
from repro.attention.utils import causal_mask
from repro.errors import ConfigError, MaskError
from tests.conftest import execute_striped as striped, random_qkv


def striped_reference_mask(s, window, idx, sink_tokens=0, dense_last_rows=0):
    """Elementwise mask equivalent of the kernel's coverage."""
    rows = np.arange(s)[:, None]
    cols = np.arange(s)[None, :]
    band = (cols <= rows) & (cols > rows - window)
    stripe_cols = np.union1d(np.asarray(idx, dtype=np.int64), np.arange(sink_tokens))
    stripe = np.zeros((s, s), dtype=bool)
    if stripe_cols.size:
        stripe[:, stripe_cols] = True
    stripe &= cols <= rows - window
    mask = band | stripe
    if dense_last_rows:
        mask[s - dense_last_rows :] = causal_mask(s, s)[s - dense_last_rows :]
    return mask


class TestStripedAttention:
    @pytest.mark.parametrize("window", [1, 8, 33, 200])
    def test_matches_dense_masked(self, rng, window):
        s = 160
        q, k, v = random_qkv(rng, h=2, s=s, d=8)
        idx = [
            np.sort(rng.choice(s, size=12, replace=False)),
            np.sort(rng.choice(s, size=5, replace=False)),
        ]
        res = striped(q, k, v, window, idx, block=64)
        mask = np.stack([striped_reference_mask(s, window, ix) for ix in idx])
        ref = dense_attention(q, k, v, mask=mask).output
        np.testing.assert_allclose(res.output, ref, atol=2e-5)

    def test_sink_tokens_merged(self, rng):
        s = 96
        q, k, v = random_qkv(rng, h=1, s=s, d=8)
        res = striped(q, k, v, 4, [[50]], sink_tokens=3)
        mask = striped_reference_mask(s, 4, [50], sink_tokens=3)[None]
        ref = dense_attention(q, k, v, mask=mask).output
        np.testing.assert_allclose(res.output, ref, atol=2e-5)

    def test_dense_last_rows(self, rng):
        s = 96
        q, k, v = random_qkv(rng, h=1, s=s, d=8)
        res = striped(q, k, v, 8, [[]], dense_last_rows=10)
        mask = striped_reference_mask(s, 8, [], dense_last_rows=10)[None]
        ref = dense_attention(q, k, v, mask=mask).output
        np.testing.assert_allclose(res.output, ref, atol=2e-5)

    def test_window_covering_everything_equals_dense(self, rng):
        s = 80
        q, k, v = random_qkv(rng, h=2, s=s, d=8)
        res = striped(q, k, v, s, [[]] * 2)
        ref = dense_attention(q, k, v).output
        np.testing.assert_allclose(res.output, ref, atol=2e-5)
        assert res.element_density == pytest.approx(1.0)

    def test_gqa(self, rng):
        s = 64
        q, k, v = random_qkv(rng, h=4, s=s, d=8, h_kv=2)
        res = striped(q, k, v, 8, [[0, 30]] * 4)
        mask = np.stack([striped_reference_mask(s, 8, [0, 30])] * 4)
        ref = dense_attention(q, k, v, mask=mask).output
        np.testing.assert_allclose(res.output, ref, atol=2e-5)

    def test_element_counts_match_mask(self, rng):
        s = 100
        q, k, v = random_qkv(rng, h=2, s=s, d=8)
        idx = [[5, 60, 90], []]
        res = striped(q, k, v, 9, idx, sink_tokens=2, dense_last_rows=7)
        for h, ix in enumerate(idx):
            mask = striped_reference_mask(s, 9, ix, sink_tokens=2, dense_last_rows=7)
            assert res.computed_elements[h] == mask.sum()

    def test_analytic_counts_match_kernel(self, rng):
        s = 123
        q, k, v = random_qkv(rng, h=3, s=s, d=8)
        idx = [np.sort(rng.choice(s, size=n, replace=False)) for n in (0, 7, 40)]
        res = striped(q, k, v, 11, idx, sink_tokens=4, dense_last_rows=5)
        analytic = striped_element_counts(
            s, s, 11, idx, sink_tokens=4, dense_last_rows=5
        )
        np.testing.assert_array_equal(res.computed_elements, analytic)

    def test_rejects_zero_window(self, rng):
        q, k, v = random_qkv(rng, h=1, s=16, d=4)
        with pytest.raises((ConfigError, MaskError)):
            striped(q, k, v, 0, [[]])

    def test_rejects_wrong_head_count(self, rng):
        q, k, v = random_qkv(rng, h=2, s=16, d=4)
        with pytest.raises(MaskError):
            striped(q, k, v, 4, [[]])

    def test_rejects_out_of_range_indices(self, rng):
        q, k, v = random_qkv(rng, h=1, s=16, d=4)
        with pytest.raises(MaskError):
            striped(q, k, v, 4, [[16]])

    def test_density_reflects_sparsity(self, rng):
        s = 256
        q, k, v = random_qkv(rng, h=1, s=s, d=8)
        sparse = striped(q, k, v, 4, [[]])
        assert sparse.element_density < 0.1
