"""Per-layer paged KV cache: a block table over the global arena.

:class:`PagedLayerKVCache` is a drop-in replacement for
:class:`repro.model.kv_cache.LayerKVCache` -- same ``append`` / ``keys`` /
``values`` / ``positions`` / ``truncate`` / ``record_attention`` /
``evict`` surface, so :meth:`repro.model.transformer.Transformer.
prefill_chunk` and ``decode_step`` run unchanged on it -- but the physical
storage lives in a shared :class:`~repro.memory.KVArena` and the cache
itself holds only a *block table* (list of block ids), absolute positions,
and the eviction statistic.

Semantics beyond the contiguous cache:

* **Copy-on-write** -- appending (or re-appending after a rollback
  truncate) into a block whose arena refcount is above one forks the block
  first, so prefix-shared physical blocks are never mutated by one of
  their readers.
* **Incremental contiguous mirror** -- the kernels want one
  ``(H_kv, len, d)`` array per cache, and under serving a multi-block
  table is almost never one ascending run of block ids (blocks are
  layer-agnostic, so layers and co-scheduled requests interleave).
  :meth:`PagedLayerKVCache.kv` therefore keeps a private contiguous copy
  of the live prefix with a watermark and, per read, copies only the
  tokens past the watermark out of the arena: a prefill chunk costs
  O(chunk) and a decode step O(1) instead of O(prefix).  Coherence:
  ``truncate(n)`` lowers the watermark to ``min(watermark, n)``;
  ``release``/``evict`` drop the mirror; a copy-on-write fork copies
  identical bytes and invalidates nothing; an adopted shared prefix is
  copied once, on first read.  A table that *is* one run still gets the
  arena's zero-copy view.  The mirror is compute staging outside the
  arena's block ledger (:attr:`PagedLayerKVCache.mirror_nbytes`).
* **Atomic append** -- an append that hits
  :class:`~repro.errors.ArenaExhaustedError` partway rolls itself back to
  the pre-append length before re-raising, so the serving engine's chunk
  retry sees the same clean state it would after a transient fault.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArenaExhaustedError, ModelError
from .arena import KVArena

__all__ = ["PagedLayerKVCache"]


class PagedLayerKVCache:
    """Append-mostly KV store for one decoder layer, paged over an arena.

    ``capacity`` is the cache's expected final length in tokens, when the
    caller knows it: the mirror is then allocated once at that size
    instead of growing geometrically.
    """

    def __init__(self, arena: KVArena, capacity: int = 0) -> None:
        self.arena = arena
        self._blocks: list[int] = []
        self._len = 0
        self._pos = np.zeros(arena.block_tokens, dtype=np.int64)
        self._acc = np.zeros(
            (arena.n_kv_heads, arena.block_tokens), dtype=np.float64
        )
        # Contiguous mirror of tokens [0, _mirrored) of the table, see kv().
        self._mirror_k: np.ndarray | None = None
        self._mirror_v: np.ndarray | None = None
        self._mirrored = 0
        self._capacity = capacity
        # Staged (uncommitted) attention mass of the in-flight decode
        # step: applied to ``_acc`` by :meth:`commit_attention`, discarded
        # by rollback (truncate/release) -- see record_attention.
        self._staged_acc: np.ndarray | None = None
        self._staged_len = 0
        #: Tokens adopted from the prefix-sharing registry at creation.
        self.shared_tokens = 0
        #: Eviction passes applied to this cache (telemetry).
        self.evictions = 0
        #: Tokens reads have copied out of the arena (monotone, telemetry).
        self.copied_tokens = 0

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------- metadata
    @property
    def block_ids(self) -> tuple[int, ...]:
        return tuple(self._blocks)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def nbytes_resident(self) -> int:
        """Arena bytes this table references (shared blocks counted once
        per referencing table; divide by refcount for amortised cost)."""
        return len(self._blocks) * self.arena.bytes_per_block

    @property
    def mirror_nbytes(self) -> int:
        """Bytes of the contiguous mirror (outside the arena ledger)."""
        if self._mirror_k is None:
            return 0
        return self._mirror_k.nbytes + self._mirror_v.nbytes

    @property
    def shared_block_count(self) -> int:
        """Blocks of this table currently shared with another table."""
        return sum(
            1 for bid in self._blocks if self.arena.refcount(bid) > 1
        )

    @property
    def positions(self) -> np.ndarray:
        return self._pos[: self._len]

    # ----------------------------------------------------------------- views
    def kv(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)``, each ``(H_kv, len, d_head)``, over the live
        prefix: the arena's zero-copy view when the table is one ascending
        run, else the mirror after copying tokens ``[watermark, len)``
        into it.  Bytes are moved verbatim, so both are bitwise equal to
        a from-scratch gather."""
        n = self._len
        pair = self.arena.view(self._blocks, n)
        if pair is not None:
            return pair
        done = self._mirrored
        if self._mirror_k is None or self._mirror_k.shape[1] < n:
            held = 0 if self._mirror_k is None else self._mirror_k.shape[1]
            shape = (
                self.arena.n_kv_heads,
                max(n, self._capacity, 2 * held),
                self.arena.d_head,
            )
            grown_k = np.empty(shape, dtype=np.float32)
            grown_v = np.empty(shape, dtype=np.float32)
            if done:
                grown_k[:, :done] = self._mirror_k[:, :done]
                grown_v[:, :done] = self._mirror_v[:, :done]
            self._mirror_k, self._mirror_v = grown_k, grown_v
        if done < n:
            self.arena.gather(
                self._blocks,
                n,
                self._mirror_k[:, done:n],
                self._mirror_v[:, done:n],
                start=done,
            )
            self.copied_tokens += n - done
            self._mirrored = n
        return self._mirror_k[:, :n], self._mirror_v[:, :n]

    @property
    def keys(self) -> np.ndarray:
        """``(H_kv, len, d_head)`` over the live prefix, see :meth:`kv`."""
        return self.kv()[0]

    @property
    def values(self) -> np.ndarray:
        return self.kv()[1]

    def attention_mass(self) -> np.ndarray:
        """Committed per-key attention mass, ``(H_kv, len)``.

        Same surface as :meth:`LayerKVCache.attention_mass`; staged (not
        yet committed) mass from an in-flight decode step is excluded.
        """
        return self._acc[:, : self._len]

    # ---------------------------------------------------------------- growth
    def _grow_meta(self, needed: int) -> None:
        cap = self._pos.shape[0]
        if needed <= cap:
            return
        new_cap = max(needed, 2 * cap)
        pos = np.zeros(new_cap, dtype=np.int64)
        pos[:cap] = self._pos
        self._pos = pos
        acc = np.zeros((self._acc.shape[0], new_cap), dtype=np.float64)
        acc[:, :cap] = self._acc
        self._acc = acc

    def _fork(self, block_index: int) -> int:
        """Copy-on-write: replace a shared block with a private copy."""
        arena = self.arena
        old = self._blocks[block_index]
        new = arena.alloc()
        arena._k[:, new] = arena._k[:, old]
        arena._v[:, new] = arena._v[:, old]
        arena.decref(old)
        arena.forks += 1
        self._blocks[block_index] = new
        return new

    # ---------------------------------------------------------------- append
    def append(
        self, k: np.ndarray, v: np.ndarray, positions: np.ndarray
    ) -> None:
        """Append ``(H_kv, n, d_head)`` keys/values at absolute
        ``positions`` (same contract as the contiguous cache); atomic
        with respect to :class:`~repro.errors.ArenaExhaustedError`."""
        n = k.shape[1]
        if v.shape != k.shape or positions.shape != (n,):
            raise ModelError("append: inconsistent shapes")
        if self._len and n and positions[0] <= self._pos[self._len - 1]:
            raise ModelError(
                f"append: positions must increase; got {positions[0]} "
                f"after {self._pos[self._len - 1]}"
            )
        start = self._len
        self._grow_meta(start + n)
        arena = self.arena
        bt = arena.block_tokens
        try:
            t, j = start, 0
            while j < n:
                bi, off = divmod(t, bt)
                if bi == len(self._blocks):
                    self._blocks.append(arena.alloc())
                bid = self._blocks[bi]
                if arena.refcount(bid) > 1:
                    bid = self._fork(bi)
                m = min(bt - off, n - j)
                arena._k[:, bid, off : off + m] = k[:, j : j + m]
                arena._v[:, bid, off : off + m] = v[:, j : j + m]
                t += m
                j += m
        except ArenaExhaustedError:
            self._len = t
            self.truncate(start)
            raise
        self._pos[start : start + n] = positions
        self._len = start + n

    # -------------------------------------------------------------- adoption
    def adopt_shared(self, block_ids: list[int], positions: np.ndarray) -> None:
        """Seed an *empty* cache with shared full blocks (prefix reuse).

        ``positions`` carries the absolute positions of the adopted tokens
        (``n_blocks * block_tokens`` of them).  Every block is increffed;
        later writes into the shared region trigger copy-on-write."""
        if self._len or self._blocks:
            raise ModelError("adopt_shared: cache must be empty")
        n = len(block_ids) * self.arena.block_tokens
        if positions.shape != (n,):
            raise ModelError(
                f"adopt_shared: expected {n} positions, got {positions.shape}"
            )
        for bid in block_ids:
            self.arena.incref(bid)
        self._blocks = list(block_ids)
        self._grow_meta(n)
        self._pos[:n] = positions
        self._len = n
        self.shared_tokens = n

    # -------------------------------------------------------------- truncate
    def truncate(self, length: int) -> None:
        """Roll back to the first ``length`` entries, releasing whole
        blocks past the new tail (same validation contract as
        :meth:`repro.model.kv_cache.LayerKVCache.truncate`: ``length``
        outside ``[0, len]`` raises :class:`~repro.errors.ModelError`)."""
        if length < 0 or length > self._len:
            raise ModelError(
                f"truncate: length {length} outside [0, {self._len}]"
            )
        bt = self.arena.block_tokens
        need = (length + bt - 1) // bt
        while len(self._blocks) > need:
            self.arena.decref(self._blocks.pop())
        self._acc[:, length : self._len] = 0.0
        self._len = length
        self._mirrored = min(self._mirrored, length)
        self.discard_staged_attention()

    def release(self) -> None:
        """Drop every block reference and the mirror (request finished
        or shed): a released cache pins no KV bytes anywhere."""
        while self._blocks:
            self.arena.decref(self._blocks.pop())
        self._acc[:, : self._len] = 0.0
        self._len = 0
        self._mirror_k = self._mirror_v = None
        self._mirrored = 0
        self.discard_staged_attention()

    # ------------------------------------------------------------- attention
    def record_attention(self, probs: np.ndarray) -> None:
        """Stage decode-step attention mass ``(H_q, 1, len)`` (the
        heavy-hitter eviction statistic), summing grouped query heads.

        Unlike the contiguous cache, the mass is *staged* rather than
        applied: a decode step can fail mid-model (arena exhaustion in a
        later layer) after this layer already recorded, and ``truncate``
        can roll back the appended token but not an in-place ``+=`` on the
        retained prefix -- retries would then double-count the step's
        mass.  :meth:`commit_attention` applies the staged mass once the
        full step succeeds; rollback (truncate/release/evict) discards it.
        """
        if probs.ndim != 3 or probs.shape[2] != self._len:
            raise ModelError(
                f"record_attention: probs shape {probs.shape} vs len "
                f"{self._len}"
            )
        h_q = probs.shape[0]
        h_kv = self._acc.shape[0]
        if h_q % h_kv != 0:
            raise ModelError("query heads not a multiple of KV heads")
        grouped = (
            probs.sum(axis=1)
            .reshape(h_kv, h_q // h_kv, self._len)
            .sum(axis=1)
        )
        if self._staged_acc is not None and self._staged_len == self._len:
            self._staged_acc += grouped
        else:
            self._staged_acc = grouped
            self._staged_len = self._len

    def commit_attention(self) -> None:
        """Apply staged attention mass to the eviction statistic (called
        after the decode step that recorded it fully succeeds)."""
        if self._staged_acc is None:
            return
        self._acc[:, : self._staged_len] += self._staged_acc
        self._staged_acc = None
        self._staged_len = 0

    def discard_staged_attention(self) -> None:
        """Drop staged attention mass (step rolled back before commit)."""
        self._staged_acc = None
        self._staged_len = 0

    # -------------------------------------------------------------- eviction
    def evict(self, keep_per_head: list[np.ndarray]) -> None:
        """Retain only ``keep_per_head`` indices (same rectangular contract
        as the contiguous cache).  The kept entries are gathered out first
        and rewritten into freshly allocated blocks, so shared blocks are
        released -- never mutated -- by eviction (CoW-safe)."""
        h_kv = self._acc.shape[0]
        if len(keep_per_head) != h_kv:
            raise ModelError(
                f"evict: got {len(keep_per_head)} index sets for {h_kv} heads"
            )
        sizes = {len(ix) for ix in keep_per_head}
        if len(sizes) != 1:
            raise ModelError(f"evict: ragged keep sizes {sorted(sizes)}")
        new_len = sizes.pop()
        if new_len > self._len:
            raise ModelError("evict: keep set larger than cache")
        bt = self.arena.block_tokens
        # Atomicity pre-check: release() only returns blocks whose last
        # reference is ours, so CoW-shared blocks (refcount above our own
        # reference count) free nothing.  If the blocks we would net-free
        # plus the current free list cannot cover the rewrite, fail BEFORE
        # destroying any state -- the pressure controller skips this
        # victim and tries the next rung instead.
        held: dict[int, int] = {}
        for bid in self._blocks:
            held[bid] = held.get(bid, 0) + 1
        would_free = sum(
            1 for bid, n in held.items() if self.arena.refcount(bid) == n
        )
        need = (new_len + bt - 1) // bt
        if self.arena.blocks_free + would_free < need:
            raise ArenaExhaustedError(
                f"evict: rewrite needs {need} blocks but releasing this "
                f"table nets {would_free} (shared blocks) with "
                f"{self.arena.blocks_free} free"
            )
        keys, values = self.kv()
        new_k = np.stack([keys[h, keep_per_head[h]] for h in range(h_kv)])
        new_v = np.stack([values[h, keep_per_head[h]] for h in range(h_kv)])
        new_acc = np.stack(
            [self._acc[h, keep_per_head[h]] for h in range(h_kv)]
        )
        new_pos = self._pos[keep_per_head[0]].copy()
        # Free first, then reallocate: the fancy-indexing above copied the
        # kept entries out (release() also drops the mirror, whose layout
        # the rewrite invalidates), and the pre-check guarantees freeing
        # makes enough room for the rewrite.
        self.release()
        arena = self.arena
        t = 0
        while t < new_len:
            bid = arena.alloc()
            self._blocks.append(bid)
            m = min(bt, new_len - t)
            arena._k[:, bid, :m] = new_k[:, t : t + m]
            arena._v[:, bid, :m] = new_v[:, t : t + m]
            t += m
        self._grow_meta(new_len)
        self._pos[:new_len] = new_pos
        self._acc[:, :new_len] = new_acc
        self._len = new_len
        self.evictions += 1
