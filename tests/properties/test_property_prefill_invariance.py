"""Property test: packed prefill attention is exact per plan and
batch-invariant.

The serving engine has one sparse prefill executor: a per-request chunk is
a packed batch of one.  That only keeps a request's tokens independent of
who it was co-scheduled with if an item's output and counts are a function
of that item alone -- bitwise the same dispatched alone or inside any
permutation of a ragged batch (shared workspace, shared band masks and
all).  And since the kernel executes the plan's own geometry, every item
must sit within float32 tolerance of dense attention under the plan's
*element* mask and count exactly that mask's elements, on every geometry
chunked prefill produces: first chunks (window clipped at column 0),
ragged tails down to a single row, windows at least as wide as the prefix,
empty stripe sets, stripes inside the band, sinks overlapping stripes,
dense last rows, GQA ratios -- and every way ``extras["bands"]`` can sit
in the plane: none, overlapping the window, adjacent to it, overlapping
each other, across stripe columns, beyond the prefix.  Large-norm queries
force the stabilised softmax path; the rest take the plain-exp path.
The contract is ``repro.audit.oracles.check_prefill_batch``, the check the
audit's ``packed`` area calls too; this suite draws what the audit's
sampler never does: ``S_k`` up to 1200, ``n_rep = 4``, large-norm q.

The model side of a prefill step is held to the same standard: the q/k/v
and output projections of all co-scheduled chunks are one token-packed
GEMM each, so every chunk's rows must come out bitwise as if the chunk
were projected alone -- whatever the batch, its order, or how many pool
workers split the rows.
"""

import functools
import threading

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.attention.packed as packed_mod
from repro import pool
from repro.attention import (
    KernelWorkspace,
    flash_attention,
    packed_block_sparse_attention,
)
from repro.attention.packed import _PLAIN_EXP_BOUND, PackedItem
from repro.audit.oracles import check_prefill_batch, hand_built_plan
from repro.model import ModelConfig, Transformer, build_model
from repro.model.weights import random_weights
from tests.conftest import random_qkv, random_stripes, record_threads

H_KV, D = 2, 16


@st.composite
def _geometry(draw):
    s_q = draw(st.sampled_from([1, 7, 64, 65, 130, 200, 256]))
    first_chunk = draw(st.booleans())
    s_k = s_q if first_chunk else draw(st.integers(s_q, 1200))
    window = draw(
        st.one_of(
            st.integers(1, s_k),
            st.sampled_from([1, s_k, s_k + 5]),  # diagonal only / >= prefix
        )
    )
    band = st.tuples(st.integers(0, s_k + 8), st.integers(1, 80)).map(
        lambda b: (b[0], b[0] + b[1])
    )
    bands = draw(
        st.one_of(
            st.just([]),  # the engine's default plans
            st.lists(band, min_size=1, max_size=3),  # anywhere, overlapping
            st.sampled_from([
                [(max(window - 2, 0), window + 3)],  # overlaps the window
                [(window, window + 4)],  # adjacent: widens it
                [(s_k + 1, s_k + 9)],  # beyond the prefix
                [(0, s_k)],  # the whole causal plane
            ]),
        )
    )
    return {
        "s_q": s_q,
        "s_k": s_k,
        "window": window,
        "bands": bands,
        # share of key columns per head; 0.0 = empty stripe sets
        "stripes": draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        "sink_tokens": draw(st.sampled_from([0, 4])),
        "dense_last_rows": draw(st.sampled_from([0, 0, 1, 5, s_q])),
        "hot": draw(st.booleans()),
    }


def _cauchy_schwarz(q, k) -> float:
    """The kernel's bound on any scaled score: max ||q_i|| / sqrt(d) x
    max ||k_j||."""
    qf = q * np.float32(1.0 / np.sqrt(D))
    q_norm = np.sqrt(np.einsum("hsd,hsd->hs", qf, qf).max())
    k_norm = np.sqrt(np.einsum("hsd,hsd->hs", k, k).max())
    return float(q_norm * k_norm)


def _item(rng, g: dict, n_rep: int):
    h = H_KV * n_rep
    s_q, s_k = g["s_q"], g["s_k"]
    q, k, v = random_qkv(rng, h=h, s=s_q, d=D, h_kv=H_KV, s_k=s_k)
    if g["hot"]:
        # Twice the plain-exp bound whatever the shape: a fixed multiplier
        # leaves a one-row, one-key item below it.
        q *= np.float32(2.0 * _PLAIN_EXP_BOUND / _cauchy_schwarz(q, k))
    plan = hand_built_plan(
        random_stripes(rng, h, s_k, g["stripes"]), s_q, s_k,
        window=g["window"],
        block_size=32,
        sink_tokens=g["sink_tokens"],
        dense_last_rows=g["dense_last_rows"],
        bands=g["bands"],
    )
    return PackedItem.from_plan(q, k, v, plan), plan


def _stabilised(item) -> bool:
    return bool(_cauchy_schwarz(item.q, item.k) >= _PLAIN_EXP_BOUND)


class TestBatchInvariance:
    @given(
        seed=st.integers(0, 10_000),
        geometries=st.lists(_geometry(), min_size=1, max_size=5),
        n_rep=st.sampled_from([1, 2, 4]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_alone_equals_any_permutation(self, seed, geometries, n_rep, data):
        rng = np.random.default_rng(seed)
        pairs = [_item(rng, g, n_rep) for g in geometries]
        for (it, _), g in zip(pairs, geometries):
            assert _stabilised(it) == g["hot"]
        order = data.draw(st.permutations(range(len(pairs))))
        result = check_prefill_batch(
            [pairs[j][0] for j in order], [pairs[j][1] for j in order]
        )
        assert result.passed, result.detail

    def test_warm_workspace_does_not_leak_between_items(self):
        """A workspace warmed by a larger item leaves stale scratch behind;
        a smaller item run after it must still match its solo output."""
        rng = np.random.default_rng(3)
        big, _ = _item(
            rng,
            dict(s_q=256, s_k=1400, window=112, stripes=0.3, sink_tokens=4,
                 dense_last_rows=0, hot=True, bands=[(300, 340)]),
            2,
        )
        small, _ = _item(
            rng,
            dict(s_q=64, s_k=130, window=11, stripes=0.05, sink_tokens=4,
                 dense_last_rows=1, hot=False, bands=[]),
            2,
        )
        ws = KernelWorkspace()
        packed_block_sparse_attention([big], workspace=ws)
        grown = ws.allocations
        packed_block_sparse_attention([big], workspace=ws)
        assert ws.allocations == grown  # grow-only: a warm call allocates nothing
        warm = packed_block_sparse_attention([small], workspace=ws).results[0]
        assert ws.allocations == grown
        cold = packed_block_sparse_attention([small]).results[0]
        np.testing.assert_array_equal(warm.output, cold.output)


# ---------------------------------------------------------------------------
# Token-packed projections: a prefill step's chunks project as one GEMM.
# ---------------------------------------------------------------------------

_CHUNK_LENGTHS = [1, 2, 7, 64, 256]


@functools.lru_cache(maxsize=None)
def _model(name: str):
    """glm-mini (``d_model`` 148: OpenBLAS's small-matrix cut-off falls at
    6 rows for q/k/v and 11 for the output projection) and a tiny model
    whose every chunk here is below it."""
    if name == "glm-mini":
        return build_model("glm-mini")
    config = ModelConfig(
        n_layers=2, n_heads=4, n_kv_heads=2, d_embed=8, d_head=16, rot_dim=4,
        vocab_size=64, norm="rms", mlp_ratio=2.0, name="tiny",
    )
    return Transformer(random_weights(config, seed=0, scale=0.3))


class TestTokenPackedProjections:
    @given(
        lengths=st.lists(st.sampled_from(_CHUNK_LENGTHS), min_size=1, max_size=5),
        model=st.sampled_from(["glm-mini", "tiny"]),
        workers=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_rows_are_each_chunk_alone(self, lengths, model, workers, data):
        layer = _model(model).layers[0]
        cfg = layer.config
        rng = np.random.default_rng(len(lengths) * 7 + workers)
        xs = [rng.standard_normal((n, cfg.d_model), dtype=np.float32) for n in lengths]
        poss = [rng.integers(0, 4096, n) for n in lengths]
        outs = [
            rng.standard_normal((cfg.n_heads, n, cfg.d_head), dtype=np.float32)
            for n in lengths
        ]
        with pool._forced_workers(1):
            alone = [layer.project_qkv(x, p) for x, p in zip(xs, poss)]
            merged_alone = [layer.merge_chunks([o])[0] for o in outs]
        order = data.draw(st.permutations(range(len(lengths))))
        cuts = np.cumsum([0] + [lengths[j] for j in order])
        with pool._forced_workers(workers):
            packed = layer.project_qkv(
                np.concatenate([xs[j] for j in order]),
                np.concatenate([poss[j] for j in order]),
            )
            merged = layer.merge_chunks([outs[j] for j in order])
        for slot, j in enumerate(order):
            r0, r1 = cuts[slot], cuts[slot + 1]
            for got, ref in zip(packed, alone[j]):
                np.testing.assert_array_equal(got[:, r0:r1], ref)
            np.testing.assert_array_equal(merged[slot], merged_alone[j])

    @given(
        lengths=st.lists(st.sampled_from(_CHUNK_LENGTHS), min_size=2, max_size=4),
        model=st.sampled_from(["glm-mini", "tiny"]),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_prefill_step_equals_each_request_alone(self, lengths, model, data):
        """Whole layers: chunk ``j`` continues a cached ``5 j``-token prefix,
        so positions and key lengths differ across the batch."""
        model = _model(model)
        rng = np.random.default_rng(sum(lengths))
        tokens = [
            rng.integers(0, model.config.vocab_size, 5 * j + n)
            for j, n in enumerate(lengths)
        ]

        def attend_batch(i, entries):
            return {
                b: flash_attention(q, keys, values, scale=scale)
                for b, (q, keys, values, scale) in entries.items()
            }

        def step(order):
            chunks = []
            for j in order:
                start = 5 * j
                caches = model.new_caches(capacity=tokens[j].size)
                if start:
                    model.prefill_chunk_batch(
                        [(tokens[j][:start], np.arange(start), caches)],
                        attend_batch,
                    )
                positions = np.arange(start, tokens[j].size)
                chunks.append((tokens[j][start:], positions, caches))
            return model.prefill_chunk_batch(chunks, attend_batch)

        alone = [step([j])[0] for j in range(len(lengths))]
        order = data.draw(st.permutations(range(len(lengths))))
        packed = step(order)
        for slot, j in enumerate(order):
            np.testing.assert_array_equal(packed[slot], alone[j])


class TestLongRequestsStepTogether:
    """Long requests stepped together put whole items on the pool: prefill
    chunks of 256 rows against >= 512 keys, decode rows against >= 1024
    cached keys.  Every request must come out bitwise as if stepped alone
    on one worker."""

    LENGTHS = (700, 1100, 1300)
    CHUNK = 256

    @staticmethod
    def _attend_batch(i, entries):
        """Sparse packed attention under a plan drawn from the chunk's
        geometry alone, so a request sees the same plan in any batch."""
        items = []
        for q, keys, values, scale in entries.values():
            h, s_q, _ = q.shape
            s_k = keys.shape[1]
            rng = np.random.default_rng((i, s_q, s_k))
            plan = hand_built_plan(
                random_stripes(rng, h, s_k, 0.05), s_q, s_k,
                window=max(1, s_k // 10), block_size=64,
                sink_tokens=4, dense_last_rows=16,
                bands=[(s_k // 2, s_k // 2 + 32)],
            )
            items.append(PackedItem.from_plan(q, keys, values, plan, scale=scale))
        res = packed_block_sparse_attention(items)
        return {b: r.output for b, r in zip(entries, res.results)}

    def _serve(self, model, tokens, ids, workers):
        """Prefill requests ``ids`` chunk by chunk, all live chunks in one
        step, then decode four steps as one batch.  Returns per request
        the residual rows of every chunk and the logits of every step."""
        out = {j: [] for j in ids}
        caches = {j: model.new_caches(capacity=tokens[j].size + 4) for j in ids}
        with pool._forced_workers(workers):
            for c0 in range(0, max(tokens[j].size for j in ids), self.CHUNK):
                live = [j for j in ids if c0 < tokens[j].size]
                chunks = [
                    (tokens[j][c0:c0 + self.CHUNK],
                     np.arange(c0, min(c0 + self.CHUNK, tokens[j].size)),
                     caches[j])
                    for j in live
                ]
                for j, rows in zip(live, model.prefill_chunk_batch(
                        chunks, self._attend_batch)):
                    out[j].append(rows)
            for t in range(4):
                entries = [(7 + t, tokens[j].size + t, caches[j]) for j in ids]
                for j, logits in zip(ids, model.decode_batch(entries)):
                    out[j].append(logits)
        return out

    def test_prefill_and_decode_batches_equal_each_request_alone(self, monkeypatch):
        model = _model("glm-mini")
        rng = np.random.default_rng(5)
        tokens = [rng.integers(0, model.config.vocab_size, n) for n in self.LENGTHS]
        ids = list(range(len(tokens)))
        units = [record_threads(monkeypatch, packed_mod, name,
                                await_helper=True)
                 for name in ("_execute_item", "decode_row_attention")]
        together = self._serve(model, tokens, ids[::-1], workers=2)
        main = threading.current_thread().name
        assert all(set(ran_on) - {main} for ran_on in units), "no item pooled"
        for j in ids:
            alone = self._serve(model, tokens, [j], workers=1)[j]
            assert len(alone) == len(together[j])
            for got, ref in zip(together[j], alone):
                np.testing.assert_array_equal(got, ref)
