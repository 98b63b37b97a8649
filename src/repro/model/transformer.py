"""The decoder-only transformer substrate.

:class:`Transformer` wires embeddings, attention layers, optional MLPs and
the unembedding into the two phases the paper's pipeline distinguishes:

* prefill -- one forward pass, :meth:`prefill_chunk_batch`: the serving
  engine drives it chunk by chunk, and :meth:`prefill` runs a prompt
  through it as one chunk (or ``chunk_size``-token chunks) with a
  pluggable :class:`~repro.backends.AttentionBackend` as the attend
  function (this is where SampleAttention and the baselines differ);
* decode -- :meth:`decode_batch`, dense attention over the caches (the
  paper keeps decode uncompressed); :meth:`generate` is greedy decoding
  on top, optionally applying the H2O KV-eviction baseline after each
  step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..attention.packed import PackedDecodeItem, packed_decode_attention
from ..backends import AttentionBackend, FullAttentionBackend
from ..baselines.h2o import H2OPolicy, recording_attend
from ..errors import ModelError
# ModelConfig is reached through weights.config; no direct import needed.
from .kv_cache import LayerKVCache
from .layers import AttentionLayer, decode_gemm, gated_mlp, rms_norm
from .rope import rope_cos_sin
from .weights import ModelWeights

__all__ = ["GenerationResult", "Transformer"]


def _atomic(caches_of: list[list], step) -> list:
    """Run ``step()``, which returns one result per entry (``None`` for an
    entry it dropped), so that no failed entry leaves a trace: each
    entry's per-layer cache lengths (``caches_of[b]``) are read first, a
    dropped entry's caches are truncated back to them after the step, in
    entry order, and every entry's are when the step raises."""
    marks = [[len(c) for c in caches] for caches in caches_of]

    def roll_back(b: int) -> None:
        for cache, length in zip(caches_of[b], marks[b]):
            cache.truncate(length)

    try:
        results = step()
    except BaseException:
        for b in range(len(caches_of)):
            roll_back(b)
        raise
    for b, result in enumerate(results):
        if result is None:
            roll_back(b)
    return results


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
        # The unembedding as the C-contiguous ``(d_model, vocab)`` weight
        # :func:`decode_gemm` reads.
        self._unembed = np.ascontiguousarray(weights.unembed.T)

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
        """Unembed residual rows: ``(S, d_model) -> (S, vocab)``, each row
        bitwise the same whatever other rows share the call (one
        :func:`~repro.model.layers.decode_gemm`): a prompt's first token
        and a decode step's tokens come out of the same product."""
        out = decode_gemm(x, self._unembed)
        if self.weights.unembed_bias is not None:
            out = out + self.weights.unembed_bias[None, :]
        return out

    # ------------------------------------------------------------- prefill
    def prefill(
        self,
        tokens: np.ndarray,
        backend: AttentionBackend | None = None,
        *,
        chunk_size: int | None = None,
        caches: list[LayerKVCache] | None = None,
    ) -> tuple[np.ndarray, list[dict]]:
        """Run the prompt through every layer: :meth:`prefill_chunk` over
        consecutive chunks, each layer attending through ``backend.prefill``.

        Parameters
        ----------
        backend:
            Prefill attention implementation; defaults to full attention.
        chunk_size:
            Tokens per chunk; defaults to one chunk, the whole prompt.
            Smaller chunks are paper Appendix A.6's memory-efficient
            serving strategy for >=128K requests: each chunk's queries
            attend (right-aligned) to every key cached so far plus their
            own, so peak activation memory is ``O(chunk_size * d_model)``
            per layer.  Sparse backends then see ``S_q = chunk_size``
            against the full key length, and SampleAttention's stage 1
            samples the *chunk's* rows, as a chunked serving integration
            runs it.  Only the last chunk's rows are returned, so every
            earlier chunk is unread (:meth:`prefill_chunk_batch`): its last
            layer appends k/v without calling ``backend.prefill``.
        caches:
            Per-layer KV caches to populate for decoding; by default a
            throwaway set sized to the prompt.

        Returns
        -------
        ``(hidden, stats)``: the last chunk's final residual rows
        ``(S_chunk, d_model)`` -- the whole prompt's by default -- and that
        chunk's per-layer ``backend.last_stats()``.
        """
        backend = backend or FullAttentionBackend()
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0:
            raise ModelError("tokens must be non-empty")
        chunk_size = tokens.size if chunk_size is None else chunk_size
        if chunk_size < 1:
            raise ModelError(f"chunk_size must be >= 1, got {chunk_size}")
        if caches is None:
            caches = self.new_caches(capacity=int(tokens.size))
        stats: list[dict] = []

        def attend(i, q, keys, values, scale):
            out = backend.prefill(q, keys, values, scale=scale, layer=i)
            stats.append(backend.last_stats())
            return out

        for c0 in range(0, tokens.size, chunk_size):
            c1 = min(c0 + chunk_size, tokens.size)
            stats.clear()
            hidden = self.prefill_chunk(
                tokens[c0:c1],
                np.arange(c0, c1, dtype=np.int64),
                caches,
                attend,
                read=c1 == tokens.size,
            )
        return hidden, stats

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
        *,
        read: bool = True,
    ) -> np.ndarray:
        """Run one prompt chunk through every layer, appending to caches.

        This is the single scheduling quantum of chunked serving:
        ``tokens``/``positions`` are the chunk's ids and absolute positions,
        ``attend(layer_index, q, keys, values, scale)`` computes the
        right-aligned causal attention output ``(H, S_chunk, d)`` for one
        layer against the full cached prefix (keys/values include this
        chunk's, already appended).  Both :meth:`prefill` and the serving
        engine drive chunks through here, so "one chunk of work" means the
        same thing to the substrate and the scheduler; the engine's
        ``attend`` additionally routes through its sparse-plan cache and
        dense fallback.

        A :meth:`prefill_chunk_batch` of one: the per-request path *is*
        the batched path, so request-vs-packed parity holds by
        construction.  Cache-append and ``attend`` errors propagate, the
        caches rolled back to their lengths before the call.

        Returns the chunk's final residual rows ``(S_chunk, d_model)``, or
        with ``read=False`` an empty ``(0, d_model)`` array: the last layer
        then only appends the chunk's k/v, and ``attend`` runs for the
        ``n_layers - 1`` layers before it.
        """
        return self.prefill_chunk_batch(
            [(tokens, positions, caches)],
            lambda i, entries: {0: attend(i, *entries[0])},
            read=[read],
        )[0]

    def prefill_chunk_batch(
        self,
        chunks: list[tuple],
        attend_batch,
        *,
        on_error=None,
        read=None,
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
        isolation).  ``on_error(chunk_index, layer_index, exc)``, if
        given, is called when a cache append raises and likewise drops
        the chunk instead of failing the whole batch.  The surviving
        chunks' attention outputs then go through one token-packed output
        projection (:meth:`AttentionLayer.merge_chunks`).  Both GEMMs keep
        every row a function of its own inputs, and split their rows over
        :mod:`repro.pool`.

        ``read[b]`` (default: every chunk) says whether the caller reads
        chunk ``b``'s final rows -- serving reads only a prompt's final
        chunk, whose last row yields the first token.  The last layer of
        an unread chunk only projects its k/v (bitwise the fused GEMM's)
        and appends them: it never reaches ``attend_batch`` or the output
        projection, so ``attend_batch`` sees it ``n_layers - 1`` times and
        is not called at all for a last layer no read chunk reaches.  Every
        cache ends bitwise as if the chunk had been read.

        Returns one entry per input chunk: the final residual rows
        ``(S_chunk, d_model)`` of a read chunk, an empty ``(0, d_model)``
        array for an unread one, or ``None`` for dropped chunks.  Survivor
        entries are bitwise identical to running :meth:`prefill_chunk`
        (a batch of one) on each request alone, given an ``attend_batch``
        whose per-item outputs do not depend on batch composition.

        The step is atomic per chunk: a dropped chunk's caches (KV,
        positions, arena blocks) are as they were before
        the call -- truncated back once the call ends, in chunk order --
        and if the call raises, every chunk's are before the exception
        propagates.
        """
        if not chunks:
            raise ModelError("prefill_chunk_batch needs at least one chunk")
        for _, _, caches in chunks:
            if len(caches) != self.config.n_layers:
                raise ModelError("caches must have one entry per layer")
        read = [True] * len(chunks) if read is None else [bool(r) for r in read]
        if len(read) != len(chunks):
            raise ModelError("read must have one entry per chunk")
        return _atomic(
            [caches for _, _, caches in chunks],
            lambda: self._prefill_layers(chunks, attend_batch, on_error, read),
        )

    def _prefill_layers(self, chunks, attend_batch, on_error, read) -> list:
        """:meth:`prefill_chunk_batch`'s layer loop; dropped chunks come
        back ``None`` with their caches as the loop left them."""
        every = [True] * len(chunks)
        xs: list[np.ndarray | None] = []
        poss: list[np.ndarray] = []
        for tokens, positions, _ in chunks:
            xs.append(self.embed(tokens))
            poss.append(np.asarray(positions, dtype=np.int64))
        live = list(range(len(chunks)))
        last = self.config.n_layers - 1
        for i, layer in enumerate(self.layers):
            with_q = read if i == last else every
            entries = self._append_packed(
                i, layer, chunks, xs, poss, live, on_error, with_q
            )
            for b in live:
                if not with_q[b]:
                    xs[b] = np.empty((0, self.config.d_model), xs[b].dtype)
            live = list(entries)
            if not live:
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

    def _append_packed(
        self, i, layer, chunks, xs, poss, live, on_error, with_q
    ) -> dict:
        """Layer ``i``'s token-packed projection of every live chunk's rows,
        each chunk's k/v appended to its cache in ``live`` order.  Chunks
        with ``with_q[b]`` share one q/k/v GEMM; the rest share one k/v-only
        GEMM (:meth:`AttentionLayer.project_kv`, bitwise the same k/v).
        Returns chunk index -> ``(q, keys, values, scale)`` for the
        ``with_q`` chunks; a chunk whose append raised is reported to
        ``on_error`` and dropped from ``live`` / ``xs``."""
        heads: dict[int, list] = {}
        for want_q, project in ((True, layer.project_qkv), (False, layer.project_kv)):
            group = [b for b in live if with_q[b] == want_q]
            if not group:
                continue
            cuts = np.cumsum([0] + [xs[b].shape[0] for b in group])
            out = project(
                np.concatenate([self._norm(xs[b]) for b in group]),
                np.concatenate([poss[b] for b in group]),
            )
            for b, r0, r1 in zip(group, cuts, cuts[1:]):
                heads[b] = [t[:, r0:r1] for t in out]
        scale = 1.0 / np.sqrt(self.config.d_head)
        entries: dict[int, tuple] = {}
        for b in list(live):
            *q, k_new, v_new = heads.pop(b)
            cache = chunks[b][2][i]
            try:
                cache.append(k_new, v_new, poss[b])
            except Exception as exc:
                if on_error is None:
                    raise
                on_error(b, i, exc)
                live.remove(b)
                xs[b] = None
                continue
            if q:
                entries[b] = (q[0], cache.keys, cache.values, scale)
        return entries

    # -------------------------------------------------------------- decode
    def decode_step(
        self, token: int, position: int, caches: list[LayerKVCache]
    ) -> np.ndarray:
        """Process one token; returns its ``(vocab,)`` logits.

        A :meth:`decode_batch` of one: the per-request path *is* the
        batched path, so request-vs-packed parity holds by construction.
        """
        return self.decode_batch([(token, position, caches)])[0]

    def decode_batch(
        self,
        entries: list[tuple],
        attend_batch=None,
        *,
        on_error=None,
        gather=None,
    ) -> list:
        """Process one decode token from each of several requests.

        The packed-batching quantum of decode serving, mirroring
        :meth:`prefill_chunk_batch`: ``entries`` is a list of
        ``(token, position, caches)`` triples, one decoding request each.
        Per layer, every live request's q/k/v come out of one GEMM
        (:meth:`AttentionLayer.project_qkv_decode_batch`, rotary tables
        computed once per step and shared across all layers), every live
        request's KV is appended, and one call to
        ``attend_batch(layer_index, items)`` computes attention for the
        whole batch -- ``items`` maps entry index to
        ``(q, keys, values, scale)`` and the returned dict maps entry
        index to its attention output ``(H, 1, d)``.  ``attend_batch`` is
        invoked exactly ``n_layers`` times per call, even when every
        entry has been dropped (the serving engine's dispatch-count
        identity rests on this).  An index absent from the returned dict
        drops that entry from all remaining layers; ``on_error(entry,
        layer, exc)`` likewise drops an entry whose cache append raised.
        ``gather(layer_index, pairs)`` -- ``pairs`` a list of
        ``(entry_index, cache)`` -- may override how per-request KV views
        are materialised (the paged backend reads through
        :class:`~repro.memory.BatchedKVGather` to account the tokens it
        copies); the default reads ``cache.keys`` / ``cache.values`` per
        entry.

        The default ``attend_batch`` executes the whole batch as one
        :func:`~repro.attention.packed.packed_decode_attention` dispatch
        per layer.

        The step is atomic per entry: a dropped entry's caches (KV,
        positions, arena blocks) are as they were before the call --
        truncated back once the call ends, in entry order -- and if the
        call raises, every entry's are before the exception propagates.
        A retry of the step therefore never double-appends.

        Returns one entry per input: the token's ``(vocab,)`` logits, or
        ``None`` for dropped entries.  Survivor logits -- and therefore
        greedy next tokens -- are **batch-invariant**: bitwise the same
        whichever other entries share the call, so :meth:`decode_step`, a
        batch of one, is the per-request reference.  Each contraction --
        q/k/v, output projection, MLP, unembedding -- is one
        :func:`~repro.model.layers.decode_gemm` over the step's rows, which
        keeps every row's bits its own; the rest is elementwise.
        """
        if not entries:
            raise ModelError("decode_batch needs at least one entry")
        for _, _, caches in entries:
            if len(caches) != self.config.n_layers:
                raise ModelError("caches must have one entry per layer")
        return _atomic(
            [caches for _, _, caches in entries],
            lambda: self._decode_layers(entries, attend_batch, on_error, gather),
        )

    def _decode_layers(self, entries, attend_batch, on_error, gather) -> list:
        """:meth:`decode_batch`'s layer loop; dropped entries come back
        ``None`` with their caches as the loop left them."""
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
                    ]
                )
                return {b: res.outputs[j] for j, b in enumerate(order)}

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
            live = [b for b in live if b in outs]
            if not live:
                continue
            idx = np.asarray(live, dtype=np.int64)
            xb[idx] += layer.merge_decode(np.stack([outs[b] for b in live]))
            lw = layer.weights
            if lw.mlp_w1 is not None:
                xb[idx] += gated_mlp(
                    self._norm(xb[idx]), lw.mlp_w1, lw.mlp_w2, lw.mlp_w3,
                    decode_gemm,
                )
        results: list = [None] * n
        if live:
            logits = self.logits(xb[np.asarray(live, dtype=np.int64)])
            for j, b in enumerate(live):
                results[b] = logits[j]
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
    ) -> GenerationResult:
        """Greedy generation: sparse-backend prefill, dense decode.

        The first generated token comes from the last prompt position's
        logits (so prefill latency here *is* TTFT for the substrate).
        ``kv_policy``, if given, evicts each cache down to its budget after
        every decode step, ranked by the attention mass decode received:
        the statistic lives here, one float64 array per layer, fed by the
        policy's :func:`~repro.baselines.h2o.recording_attend` and
        compacted by :meth:`~repro.baselines.h2o.H2OPolicy.evict`.
        """
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.size == 0:
            raise ModelError("prompt must be non-empty")
        if max_new_tokens < 0:
            raise ModelError("max_new_tokens must be >= 0")

        capacity = int(prompt.size + max_new_tokens + 1)
        caches = self.new_caches(capacity=capacity)
        attend_batch = None  # the default dispatch
        if kv_policy is not None:
            mass = [
                np.zeros((self.config.n_kv_heads, capacity))
                for _ in caches
            ]
            attend_batch = recording_attend([mass])
        t0 = time.perf_counter()
        hidden, stats = self.prefill(prompt, backend, caches=caches)
        next_token = int(np.argmax(self.logits(hidden[-1:])[0]))
        t1 = time.perf_counter()

        generated: list[int] = []
        position = int(prompt.size)
        for _ in range(max_new_tokens):
            generated.append(next_token)
            if stop_token is not None and next_token == stop_token:
                break
            logits = self.decode_batch(
                [(next_token, position, caches)], attend_batch
            )[0]
            if kv_policy is not None:
                kv_policy.evict(caches, mass)
            next_token = int(np.argmax(logits))
            position += 1
        t2 = time.perf_counter()

        return GenerationResult(
            tokens=generated,
            prefill_seconds=t1 - t0,
            decode_seconds=t2 - t1,
            backend_stats=stats,
        )
