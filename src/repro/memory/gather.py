"""Batched KV read for fused decode over paged KV caches.

A fused decode step needs every batched request's ``(keys, values)`` for
one layer at once.  :class:`BatchedKVGather` asks each cache for
:meth:`~repro.memory.PagedLayerKVCache.kv` -- the arena's zero-copy view,
or the cache's contiguous mirror topped up with the tokens appended since
its last read -- and accounts how many tokens the step actually copied.
"""

from __future__ import annotations

__all__ = ["BatchedKVGather"]


class BatchedKVGather:
    """Read hook for :meth:`Transformer.decode_batch`, with copy accounting.

    Call signature matches the ``gather`` parameter of ``decode_batch``:
    ``(layer_index, pairs) -> {entry_index: (keys, values)}`` where
    ``pairs`` is a list of ``(entry_index, cache)``.  The engine keeps one
    instance per run; its counters land in
    ``EngineResult.memory["decode_gather"]``.
    """

    def __init__(self) -> None:
        #: Total calls.
        self.dispatches = 0
        #: Calls that copied nothing.
        self.view_only_dispatches = 0
        #: Tokens copied out of the arena by these calls (telemetry).
        self.gathered_tokens = 0
        #: Tokens of paged caches served without a copy: an arena view,
        #: or already in the cache's mirror (telemetry).
        self.viewed_tokens = 0

    def __call__(self, layer_index: int, pairs: list) -> dict:
        self.dispatches += 1
        out: dict = {}
        copied = 0
        for b, cache in pairs:
            if not hasattr(cache, "kv"):
                # Contiguous (non-paged) cache: its views are already
                # zero-copy slices of one buffer.
                out[b] = (cache.keys, cache.values)
                continue
            before = cache.copied_tokens
            out[b] = cache.kv()
            delta = cache.copied_tokens - before
            copied += delta
            self.viewed_tokens += len(cache) - delta
        self.gathered_tokens += copied
        if not copied:
            self.view_only_dispatches += 1
        return out

    def stats(self) -> dict:
        """Telemetry snapshot (JSON-friendly)."""
        return {
            "dispatches": self.dispatches,
            "view_only_dispatches": self.view_only_dispatches,
            "viewed_tokens": self.viewed_tokens,
            "gathered_tokens": self.gathered_tokens,
        }
