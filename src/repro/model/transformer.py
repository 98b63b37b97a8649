"""The decoder-only transformer substrate.

:class:`Transformer` wires embeddings, attention layers, optional MLPs and
the unembedding into the two phases the paper's pipeline distinguishes:

* :meth:`prefill` -- process the whole prompt through a pluggable
  :class:`~repro.backends.AttentionBackend` (this is where SampleAttention
  and the baselines differ) and populate the KV caches;
* :meth:`generate` -- greedy decoding with dense attention over the caches
  (the paper keeps decode uncompressed), optionally applying a KV-eviction
  policy after each step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..attention.packed import PackedDecodeItem, packed_decode_attention
from ..backends import AttentionBackend, FullAttentionBackend
from ..baselines.h2o import H2OPolicy
from ..errors import ModelError
# ModelConfig is reached through weights.config; no direct import needed.
from .kv_cache import LayerKVCache
from .layers import AttentionLayer, gated_mlp, gated_mlp_rows, rms_norm
from .rope import rope_cos_sin
from .weights import ModelWeights

__all__ = ["GenerationResult", "Transformer"]


@dataclass
class GenerationResult:
    """Outcome of :meth:`Transformer.generate`.

    Attributes
    ----------
    tokens:
        Generated token ids (prompt excluded).
    prefill_seconds:
        Wall-clock prefill time (the substrate's measured TTFT).
    decode_seconds:
        Wall-clock decode time for all generated tokens.
    backend_stats:
        Per-layer ``backend.last_stats()`` snapshots from prefill.
    """

    tokens: list[int]
    prefill_seconds: float
    decode_seconds: float
    backend_stats: list[dict] = field(default_factory=list)


class Transformer:
    """Decoder-only LM over NumPy arrays.

    Parameters
    ----------
    weights:
        Validated :class:`~repro.model.weights.ModelWeights`; the config is
        taken from it.
    """

    def __init__(self, weights: ModelWeights) -> None:
        weights.validate()
        self.weights = weights
        self.config = weights.config
        self.layers = [
            AttentionLayer(self.config, lw) for lw in weights.layers
        ]

    # ------------------------------------------------------------ plumbing
    def _norm(self, x: np.ndarray) -> np.ndarray:
        if self.config.norm == "rms":
            return rms_norm(x)
        return x

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ModelError(f"tokens must be rank-1, got rank {tokens.ndim}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ModelError(
                f"token id out of range [0, {self.config.vocab_size})"
            )
        return self.weights.embed[tokens].astype(np.float32)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Unembed residual rows: ``(S, d_model) -> (S, vocab)``."""
        out = x @ self.weights.unembed.T
        if self.weights.unembed_bias is not None:
            out = out + self.weights.unembed_bias[None, :]
        return out

    # ------------------------------------------------------------- prefill
    def prefill(
        self,
        tokens: np.ndarray,
        backend: AttentionBackend | None = None,
        *,
        caches: list[LayerKVCache] | None = None,
        prob_hook=None,
    ) -> tuple[np.ndarray, list[dict]]:
        """Run the prompt through every layer.

        Parameters
        ----------
        backend:
            Prefill attention implementation; defaults to full attention.
        caches:
            Optional per-layer KV caches to populate for decoding.
        prob_hook:
            ``prob_hook(layer_index, probs)`` receives each layer's dense
            attention probabilities ``(H, S, S)`` (analysis use; slow).

        Returns
        -------
        ``(hidden, stats)``: final residual stream ``(S, d_model)`` and the
        per-layer backend stats.
        """
        backend = backend or FullAttentionBackend()
        if caches is not None and len(caches) != self.config.n_layers:
            raise ModelError("caches must have one entry per layer")
        x = self.embed(tokens)
        stats: list[dict] = []
        for i, layer in enumerate(self.layers):
            hook = (lambda p, _i=i: prob_hook(_i, p)) if prob_hook else None
            delta = layer.prefill(
                self._norm(x),
                backend,
                cache=caches[i] if caches is not None else None,
                prob_hook=hook,
                layer_index=i,
            )
            x = x + delta
            lw = layer.weights
            if lw.mlp_w1 is not None:
                x = x + gated_mlp(self._norm(x), lw.mlp_w1, lw.mlp_w2, lw.mlp_w3)
            stats.append(backend.last_stats())
        return x, stats

    def new_caches(self, capacity: int = 256) -> list[LayerKVCache]:
        return [
            LayerKVCache(self.config.n_kv_heads, self.config.d_head, capacity)
            for _ in range(self.config.n_layers)
        ]

    def prefill_chunk(
        self,
        tokens: np.ndarray,
        positions: np.ndarray,
        caches: list[LayerKVCache],
        attend,
    ) -> np.ndarray:
        """Run one prompt chunk through every layer, appending to caches.

        This is the single scheduling quantum of chunked serving:
        ``tokens``/``positions`` are the chunk's ids and absolute positions,
        ``attend(layer_index, q, keys, values, scale)`` computes the
        right-aligned causal attention output ``(H, S_chunk, d)`` for one
        layer against the full cached prefix (keys/values include this
        chunk's, already appended).  Both :meth:`prefill_chunked` and the
        serving engine drive chunks through here, so "one chunk of work"
        means the same thing to the substrate and the scheduler; the
        engine's ``attend`` additionally routes through its sparse-plan
        cache and dense fallback.

        A :meth:`prefill_chunk_batch` of one: the per-request path *is*
        the batched path, so request-vs-packed parity holds by
        construction.  Cache-append and ``attend`` errors propagate.

        Returns the chunk's final residual rows ``(S_chunk, d_model)``.
        """
        return self.prefill_chunk_batch(
            [(tokens, positions, caches)],
            lambda i, entries: {0: attend(i, *entries[0])},
        )[0]

    def prefill_chunk_batch(
        self,
        chunks: list[tuple],
        attend_batch,
        *,
        on_error=None,
    ) -> list:
        """Run one chunk from each of several requests through every layer.

        The packed-batching quantum of chunked serving: ``chunks`` is a
        list of ``(tokens, positions, caches)`` triples (one co-scheduled
        chunk per request).  Per layer, the q/k/v projection of every
        live chunk is one token-packed GEMM over their concatenated rows
        (:meth:`AttentionLayer.project_qkv`, rotary tables applied once
        over the packed rows), every live chunk's KV is appended, one
        call to ``attend_batch(layer_index, entries)`` computes attention
        for the whole batch -- ``entries`` maps chunk index to
        ``(q, keys, values, scale)`` and the returned dict maps chunk
        index to the attention output ``(H, S_chunk, d)``.  An index
        *absent* from the returned dict drops that chunk from all
        remaining layers (the engine uses this for per-request fault
        isolation; the caller rolls the dropped request's caches back).
        ``on_error(chunk_index, layer_index, exc)``, if given, is called
        when a cache append raises and likewise drops the chunk instead
        of failing the whole batch.  The surviving chunks' attention
        outputs then go through one token-packed output projection
        (:meth:`AttentionLayer.merge_chunks`).  Both GEMMs keep every row
        a function of its own inputs, and split their rows over
        :mod:`repro.pool`.

        Returns one entry per input chunk: the final residual rows
        ``(S_chunk, d_model)``, or ``None`` for dropped chunks.  Survivor
        entries are bitwise identical to running :meth:`prefill_chunk`
        (a batch of one) on each request alone, given an ``attend_batch``
        whose per-item outputs do not depend on batch composition.
        """
        if not chunks:
            raise ModelError("prefill_chunk_batch needs at least one chunk")
        for _, _, caches in chunks:
            if len(caches) != self.config.n_layers:
                raise ModelError("caches must have one entry per layer")
        xs: list[np.ndarray | None] = []
        poss: list[np.ndarray] = []
        for tokens, positions, _ in chunks:
            xs.append(self.embed(tokens))
            poss.append(np.asarray(positions, dtype=np.int64))
        live = list(range(len(chunks)))
        for i, layer in enumerate(self.layers):
            entries = self._append_packed(i, layer, chunks, xs, poss, live, on_error)
            if not entries:
                break
            outs = attend_batch(i, entries)
            del entries  # its q views hold the step's whole q/k/v
            for b in live:
                if b not in outs:
                    xs[b] = None
            live = [b for b in live if b in outs]
            if not live:
                break
            lw = layer.weights
            deltas = layer.merge_chunks([outs[b] for b in live])
            for j, b in enumerate(live):
                xs[b] = xs[b] + deltas[j]
                if lw.mlp_w1 is not None:
                    xs[b] = xs[b] + gated_mlp(
                        self._norm(xs[b]), lw.mlp_w1, lw.mlp_w2, lw.mlp_w3
                    )
        return xs

    def _append_packed(self, i, layer, chunks, xs, poss, live, on_error) -> dict:
        """Layer ``i``'s token-packed q/k/v projection over every live
        chunk's rows, each chunk's k/v appended to its cache.  Returns chunk
        index -> ``(q, keys, values, scale)``; a chunk whose append raised
        is reported to ``on_error`` and dropped from ``live`` / ``xs``."""
        cuts = np.cumsum([0] + [xs[b].shape[0] for b in live])
        q, k_new, v_new = layer.project_qkv(
            np.concatenate([self._norm(xs[b]) for b in live]),
            np.concatenate([poss[b] for b in live]),
        )
        scale = 1.0 / np.sqrt(self.config.d_head)
        entries: dict[int, tuple] = {}
        for j, b in enumerate(list(live)):
            r0, r1 = cuts[j], cuts[j + 1]
            cache = chunks[b][2][i]
            try:
                cache.append(k_new[:, r0:r1], v_new[:, r0:r1], poss[b])
            except Exception as exc:
                if on_error is None:
                    raise
                on_error(b, i, exc)
                live.remove(b)
                xs[b] = None
                continue
            entries[b] = (q[:, r0:r1], cache.keys, cache.values, scale)
        return entries

    def prefill_chunked(
        self,
        tokens: np.ndarray,
        backend: AttentionBackend | None = None,
        *,
        chunk_size: int = 512,
        caches: list[LayerKVCache] | None = None,
    ) -> tuple[np.ndarray, list[dict]]:
        """Memory-efficient chunked prefill (paper Appendix A.6's serving
        strategy for >=128K requests).

        The prompt is processed in chunks along the sequence dimension:
        each chunk's queries attend (right-aligned) to all keys cached so
        far plus its own, so results are numerically identical to a
        monolithic prefill while peak activation memory is
        ``O(chunk_size * d_model)`` per layer.

        Sparse backends see ``S_q = chunk_size`` against the full key
        length; SampleAttention's stage-1 then samples the *chunk's* rows,
        which is exactly how a chunked serving integration would run it.

        Returns the final residual rows of the **last chunk only** (enough
        for TTFT) plus per-layer stats from the last chunk.
        """
        backend = backend or FullAttentionBackend()
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0:
            raise ModelError("tokens must be non-empty")
        if chunk_size < 1:
            raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")
        own_caches = caches is None
        if own_caches:
            caches = self.new_caches(capacity=int(tokens.size))
        elif len(caches) != self.config.n_layers:
            raise ModelError("caches must have one entry per layer")

        stats: list[dict] = []

        def attend(i, q, keys, values, scale):
            out = backend.prefill(q, keys, values, scale=scale, layer=i)
            stats.append(backend.last_stats())
            return out

        x_last: np.ndarray | None = None
        for c0 in range(0, tokens.size, chunk_size):
            c1 = min(c0 + chunk_size, tokens.size)
            stats = []
            x_last = self.prefill_chunk(
                tokens[c0:c1], np.arange(c0, c1, dtype=np.int64), caches, attend
            )
        assert x_last is not None
        return x_last, stats

    # -------------------------------------------------------------- decode
    def decode_step(
        self,
        token: int,
        position: int,
        caches: list[LayerKVCache],
        *,
        kv_policy: H2OPolicy | None = None,
        record_attention: bool = False,
    ) -> np.ndarray:
        """Process one token; returns its ``(vocab,)`` logits.

        A :meth:`decode_batch` of one: the per-request path *is* the
        batched path, so request-vs-packed parity holds by construction.
        ``record_attention=True`` accumulates each layer's attention mass
        onto the caches' eviction statistic even without a ``kv_policy`` --
        the serving engine uses this so heavy-hitter eviction under memory
        pressure has scores to rank by.
        """
        return self.decode_batch(
            [(token, position, caches)],
            kv_policy=kv_policy,
            record_attention=record_attention,
        )[0]

    def decode_batch(
        self,
        entries: list[tuple],
        attend_batch=None,
        *,
        kv_policy: H2OPolicy | None = None,
        record_attention: bool = False,
        on_error=None,
        gather=None,
    ) -> list:
        """Process one decode token from each of several requests.

        The packed-batching quantum of decode serving, mirroring
        :meth:`prefill_chunk_batch`: ``entries`` is a list of
        ``(token, position, caches)`` triples, one decoding request each.
        Per layer, the single-token projections run through
        :meth:`AttentionLayer.project_qkv_decode_batch` (rotary tables
        computed once per step and shared across all layers), every live
        request's KV is appended, and one call to
        ``attend_batch(layer_index, items)`` computes attention for the
        whole batch -- ``items`` maps entry index to
        ``(q, keys, values, scale)`` and the returned dict maps entry
        index to ``(output, probs_or_None)``.  ``attend_batch`` is
        invoked exactly ``n_layers`` times per call, even when every
        entry has been dropped (the serving engine's dispatch-count
        identity rests on this).  An index absent from the returned dict
        drops that entry from all remaining layers; ``on_error(entry,
        layer, exc)`` likewise drops an entry whose cache append raised
        (the caller rolls the dropped entry's caches back -- staged
        attention mass is discarded by the rollback ``truncate``).
        ``gather(layer_index, pairs)`` -- ``pairs`` a list of
        ``(entry_index, cache)`` -- may override how per-request KV views
        are materialised (the paged backend reads through
        :class:`~repro.memory.BatchedKVGather` to account the tokens it
        copies); the default reads ``cache.keys`` / ``cache.values`` per
        entry.

        The default ``attend_batch`` executes the whole batch as one
        :func:`~repro.attention.packed.packed_decode_attention` dispatch
        per layer.  With ``record_attention=True`` (or a ``kv_policy``)
        each layer's attention mass is recorded onto the caches; staged
        mass is committed only after every layer ran, so a mid-model
        failure plus rollback never double-counts a step.

        Returns one entry per input: the token's ``(vocab,)`` logits, or
        ``None`` for dropped entries.  Survivor logits -- and therefore
        greedy next tokens -- are **batch-invariant**: bitwise the same
        whichever other entries share the call (every contraction is
        issued per row; only elementwise work is stacked), so
        :meth:`decode_step`, a batch of one, is the per-request reference.
        """
        if not entries:
            raise ModelError("decode_batch needs at least one entry")
        for _, _, caches in entries:
            if len(caches) != self.config.n_layers:
                raise ModelError("caches must have one entry per layer")
        n = len(entries)
        tokens = np.asarray([t for t, _, _ in entries], dtype=np.int64)
        xb = self.embed(tokens)  # row b bitwise == embed([token_b])
        positions = np.asarray([p for _, p, _ in entries], dtype=np.int64)
        # One rotary table for the whole batch step, shared across layers:
        # rows are independent, so row b is bitwise equal to the
        # per-(request, layer) table per-request decode recomputes.
        cos, sin = rope_cos_sin(
            positions, self.config.rot_dim, self.config.rope_base
        )
        pos_arrays = [
            np.asarray([p], dtype=np.int64) for _, p, _ in entries
        ]
        record = record_attention or kv_policy is not None
        scale = 1.0 / np.sqrt(self.config.d_head)

        if attend_batch is None:

            def attend_batch(layer_index: int, items: dict) -> dict:
                if not items:
                    return {}
                order = list(items)
                res = packed_decode_attention(
                    [
                        PackedDecodeItem(q=q, k=k, v=v, scale=s)
                        for q, k, v, s in items.values()
                    ],
                    return_probs=record,
                )
                return {
                    b: (
                        res.outputs[j],
                        res.probs[j] if res.probs is not None else None,
                    )
                    for j, b in enumerate(order)
                }

        live = list(range(n))
        for i, layer in enumerate(self.layers):
            items: dict[int, tuple] = {}
            if live:
                idx = np.asarray(live, dtype=np.int64)
                xn = self._norm(xb[idx])
                qb, kb, vb = layer.project_qkv_decode_batch(
                    xn, cos[idx], sin[idx]
                )
                for j, b in enumerate(list(live)):
                    cache = entries[b][2][i]
                    try:
                        cache.append(kb[j], vb[j], pos_arrays[b])
                    except Exception as exc:
                        if on_error is None:
                            raise
                        on_error(b, i, exc)
                        live.remove(b)
                        continue
                    items[b] = (qb[j], cache, scale)
                if gather is None:
                    kv = {b: (c.keys, c.values) for b, (_, c, _) in items.items()}
                else:
                    kv = gather(i, [(b, c) for b, (_, c, _) in items.items()])
                items = {
                    b: (q, kv[b][0], kv[b][1], s)
                    for b, (q, _, s) in items.items()
                }
            outs = attend_batch(i, items)
            if not live:
                continue
            deltas = np.zeros_like(xb)
            for b in list(live):
                if b not in outs:
                    live.remove(b)
                    continue
                out_b, probs_b = outs[b]
                if record and probs_b is not None:
                    entries[b][2][i].record_attention(probs_b)
                deltas[b] = layer.merge_heads_decode(out_b)[0]
            xb = xb + deltas
            lw = layer.weights
            if lw.mlp_w1 is not None and live:
                idx = np.asarray(live, dtype=np.int64)
                mlp = gated_mlp_rows(
                    self._norm(xb[idx]), lw.mlp_w1, lw.mlp_w2, lw.mlp_w3
                )
                add = np.zeros_like(xb)
                add[idx] = mlp
                xb = xb + add
        # Commit staged attention mass only for surviving entries, after
        # every layer ran (dropped entries' staged mass dies with the
        # caller's rollback truncate).  Contiguous caches apply mass
        # immediately and have no commit hook.
        for b in live:
            for cache in entries[b][2]:
                commit = getattr(cache, "commit_attention", None)
                if commit is not None:
                    commit()
        if kv_policy is not None:
            for b in live:
                for cache in entries[b][2]:
                    if len(cache) > kv_policy.budget:
                        cache.evict(kv_policy.select(cache.attention_mass()))
        results: list = [None] * n
        for b in live:
            results[b] = self.logits(xb[b : b + 1])[0]
        return results

    # ------------------------------------------------------------ generate
    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        *,
        backend: AttentionBackend | None = None,
        kv_policy: H2OPolicy | None = None,
        stop_token: int | None = None,
        compress_kv_with_plan: bool = False,
    ) -> GenerationResult:
        """Greedy generation: sparse-backend prefill, dense decode.

        The first generated token comes from the last prompt position's
        logits (so prefill latency here *is* TTFT for the substrate).

        With ``compress_kv_with_plan=True`` (requires a plan-recording
        SampleAttention backend), the KV caches are compressed to each
        layer's plan -- stripes ∪ sinks ∪ recent window -- right after
        prefill, so decoding runs over a fraction of the cache (see
        :mod:`repro.core.sparse_decode`).
        """
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.size == 0:
            raise ModelError("prompt must be non-empty")
        if max_new_tokens < 0:
            raise ModelError("max_new_tokens must be >= 0")
        if compress_kv_with_plan:
            if not getattr(backend, "record_plans", False):
                raise ModelError(
                    "compress_kv_with_plan requires a SampleAttention "
                    "backend constructed with record_plans=True"
                )

        caches = self.new_caches(capacity=int(prompt.size + max_new_tokens + 1))
        t0 = time.perf_counter()
        hidden, stats = self.prefill(prompt, backend, caches=caches)
        if compress_kv_with_plan:
            from ..core.sparse_decode import compress_caches_with_plans

            compress_caches_with_plans(caches, backend.plans)
        next_token = int(np.argmax(self.logits(hidden[-1:])[0]))
        t1 = time.perf_counter()

        generated: list[int] = []
        position = int(prompt.size)
        for _ in range(max_new_tokens):
            generated.append(next_token)
            if stop_token is not None and next_token == stop_token:
                break
            logits = self.decode_step(
                next_token, position, caches, kv_policy=kv_policy
            )
            next_token = int(np.argmax(logits))
            position += 1
        t2 = time.perf_counter()

        return GenerationResult(
            tokens=generated,
            prefill_seconds=t1 - t0,
            decode_seconds=t2 - t1,
            backend_stats=stats,
        )
