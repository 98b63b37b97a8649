"""Copy-on-write prefix sharing keyed by token-prefix chain hashes.

Workloads in the tasks suite repeat system prompts and few-shot headers
across requests; their KV blocks are bit-identical because prefill keys are
stored post-rotary at absolute positions.  The
:class:`PrefixSharingRegistry` lets a new request *adopt* the physical
blocks of an earlier request with a matching token prefix instead of
recomputing (and re-storing) them:

* Keys are **chain hashes**: ``key[i] = sha1(key[i-1] || tokens of block
  i)``, one per *full* block, so a lookup can find the longest registered
  block-aligned prefix of a new request in O(n_blocks) hash probes.
* The registry **holds its own references** on every registered block
  (per layer), so shared prefixes survive the donor request finishing
  or being shed.
* Writers never see the registry: adoption goes through
  :meth:`PagedLayerKVCache.adopt_shared`, which increfs, and any write
  into an adopted block forks it (copy-on-write in the cache layer).
* Under memory pressure the engine calls :meth:`shrink` to drop the
  least-recently-used entries, releasing their refs -- the pressure
  ladder's one relieving rung, lossless.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import ConfigError
from .arena import KVArena

__all__ = ["PrefixSharingRegistry", "prefix_block_keys"]

#: Soft cap on distinct registered prefixes per registry.
MAX_ENTRIES = 32


def prefix_block_keys(tokens: np.ndarray, block_tokens: int) -> list[str]:
    """Chain hash per *full* block of ``tokens``.

    ``keys[i]`` identifies the first ``(i + 1) * block_tokens`` tokens;
    because each hash folds in the previous one, equal keys imply equal
    full prefixes (up to hash collision), not merely equal blocks.
    """
    if block_tokens < 1:
        raise ConfigError(f"block_tokens must be >= 1, got {block_tokens}")
    n_full = tokens.size // block_tokens
    keys: list[str] = []
    prev = b""
    flat = np.asarray(tokens, dtype=np.int64)
    for i in range(n_full):
        chunk = flat[i * block_tokens : (i + 1) * block_tokens]
        digest = hashlib.sha1(prev + chunk.tobytes()).hexdigest()
        keys.append(digest)
        prev = digest.encode()
    return keys


class _Entry:
    """One registered prefix: per-layer block ids plus bookkeeping."""

    __slots__ = (
        "per_layer_blocks",
        "n_blocks",
        "positions",
        "keys",
        "hits",
        "stamp",
    )

    def __init__(
        self,
        per_layer_blocks: list[list[int]],
        positions: np.ndarray,
        keys: list[str],
        stamp: int,
    ) -> None:
        self.per_layer_blocks = per_layer_blocks
        self.n_blocks = len(per_layer_blocks[0])
        self.positions = positions
        self.keys = keys  # chain key per covered block (for key rebuilds)
        self.hits = 0
        self.stamp = stamp


class PrefixSharingRegistry:
    """Maps token-prefix chain hashes to registered physical KV blocks.

    One entry covers a full registered prefix; every block-aligned
    sub-prefix of it is reachable through the chain key of that length, so
    a partial match still shares the matching blocks.

    Parameters
    ----------
    arena:
        The arena whose blocks the registry references.  At most
        :data:`MAX_ENTRIES` distinct prefixes are registered; registering
        beyond that evicts the least-recently-used entry first.
    """

    def __init__(self, arena: KVArena) -> None:
        self.arena = arena
        self._entries: dict[str, _Entry] = {}  # full-prefix key -> entry
        self._by_key: dict[str, tuple[_Entry, int]] = {}  # any prefix key
        self._clock = 0  # deterministic LRU stamp
        # Monotone counters for telemetry.
        self.hits = 0
        self.misses = 0
        self.registrations = 0
        self.shrinks = 0
        self.tokens_reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def blocks_held(self) -> int:
        """Physical block references the registry currently owns."""
        return sum(
            e.n_blocks * len(e.per_layer_blocks)
            for e in self._entries.values()
        )

    # --------------------------------------------------------------- lookup
    def lookup(
        self, tokens: np.ndarray, max_blocks: int | None = None
    ) -> tuple[list[list[int]], np.ndarray] | None:
        """Longest registered block-aligned prefix of ``tokens``.

        Returns ``(per_layer_blocks, positions)`` for the matched blocks,
        or ``None``.  ``max_blocks`` caps the match (the engine passes
        ``(n_tokens - 1) // block_tokens`` so at least one token always
        remains to execute and produce logits).  The caller must adopt the
        returned blocks via :meth:`PagedLayerKVCache.adopt_shared` --
        which takes the refs -- before any other registry mutation.
        """
        keys = prefix_block_keys(tokens, self.arena.block_tokens)
        if max_blocks is not None:
            keys = keys[:max_blocks]
        for i in range(len(keys) - 1, -1, -1):
            found = self._by_key.get(keys[i])
            if found is None:
                continue
            entry, n_blocks = found
            self._clock += 1
            entry.stamp = self._clock
            entry.hits += 1
            self.hits += 1
            self.tokens_reused += n_blocks * self.arena.block_tokens
            blocks = [
                layer_blocks[:n_blocks]
                for layer_blocks in entry.per_layer_blocks
            ]
            n_tok = n_blocks * self.arena.block_tokens
            return blocks, entry.positions[:n_tok]
        self.misses += 1
        return None

    # ------------------------------------------------------------- register
    def register(self, tokens: np.ndarray, caches: list) -> int:
        """Publish the full-block prefix of a freshly prefilled request.

        ``caches`` is the request's per-layer ``PagedLayerKVCache`` list
        (one table per layer).  The registry increfs every published block
        so they outlive the donor.  Returns the number of blocks
        registered (0 when the prefix is shorter than one block or the
        chain is already known).
        """
        bt = self.arena.block_tokens
        n_full = int(tokens.size) // bt
        if n_full < 1:
            return 0
        if any(len(c) < n_full * bt for c in caches):
            return 0  # a donor table shorter than the prefix
        keys = prefix_block_keys(tokens[: n_full * bt], bt)
        if keys[-1] in self._entries:
            return 0
        while len(self._entries) >= MAX_ENTRIES:
            self._drop_lru()
        per_layer = [list(c.block_ids[:n_full]) for c in caches]
        for layer_blocks in per_layer:
            for bid in layer_blocks:
                self.arena.incref(bid)
        self._clock += 1
        entry = _Entry(
            per_layer,
            np.asarray(caches[0].positions[: n_full * bt]).copy(),
            keys,
            self._clock,
        )
        self._entries[keys[-1]] = entry
        for i, key in enumerate(keys):
            # Longest registration wins the shared sub-prefix keys.
            self._by_key[key] = (entry, i + 1)
        self.registrations += 1
        return n_full

    # --------------------------------------------------------------- shrink
    def _drop_lru(self) -> int:
        """Release the least-recently-used entry; returns blocks dropped."""
        if not self._entries:
            return 0
        full_key = min(
            self._entries, key=lambda k: self._entries[k].stamp
        )
        entry = self._entries.pop(full_key)
        for layer_blocks in entry.per_layer_blocks:
            for bid in layer_blocks:
                self.arena.decref(bid)
        # Rebuild the prefix-key map from the survivors: the dropped entry
        # may have claimed sub-prefix keys that older still-registered
        # entries also cover ("longest registration wins" on register), and
        # simply deleting its keys would orphan those entries' prefixes.
        # Registration order is preserved by dict insertion order, so the
        # rebuild reproduces the same winner among the survivors.
        self._by_key = {}
        for e in self._entries.values():
            for i, key in enumerate(e.keys):
                self._by_key[key] = (e, i + 1)
        return entry.n_blocks * len(entry.per_layer_blocks)

    def shrink(self, n_entries: int = 1) -> int:
        """Drop up to ``n_entries`` LRU entries (pressure rung 1).

        Returns the number of block *references* released; blocks still
        adopted by live requests stay resident until those requests drop
        them, so the freed count is an upper bound on reclaimed blocks.
        """
        dropped = 0
        for _ in range(n_entries):
            got = self._drop_lru()
            if not got:
                break
            dropped += got
            self.shrinks += 1
        return dropped

    def clear(self) -> int:
        """Release every entry (engine shutdown)."""
        total = 0
        while self._entries:
            total += self._drop_lru()
        return total

    # ------------------------------------------------------------ reporting
    def stats(self) -> dict:
        """Telemetry snapshot (JSON-friendly)."""
        return {
            "entries": len(self._entries),
            "blocks_held": self.blocks_held,
            "hits": self.hits,
            "misses": self.misses,
            "registrations": self.registrations,
            "shrinks": self.shrinks,
            "tokens_reused": self.tokens_reused,
        }
