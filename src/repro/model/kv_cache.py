"""Per-layer KV cache for the decode phase.

Keys are stored *post-rotary* (rotated at their absolute positions), so
evicting entries never requires re-rotation.  The cache applies no policy
and keeps no statistic: :meth:`LayerKVCache.evict` takes keep sets, and
:meth:`~repro.model.transformer.Transformer.generate` applies a
:class:`repro.baselines.h2o.H2OPolicy` after each decode step, ranking
keys by the attention mass the policy's own state accumulates.

The paper keeps the decode-phase cache uncompressed, and so does the
serving engine; eviction support exists to demonstrate that
SampleAttention (prefill compute) composes with KV-cache compression
(decode memory), see ``tests/integration/test_orthogonality.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError

__all__ = ["LayerKVCache"]


class LayerKVCache:
    """Append-mostly KV store for one decoder layer.

    Arrays are over-allocated geometrically; ``keys``/``values`` views are
    materialised per access without copying.
    """

    def __init__(self, n_kv_heads: int, d_head: int, capacity: int = 256) -> None:
        if n_kv_heads < 1 or d_head < 1 or capacity < 1:
            raise ModelError("invalid KV cache geometry")
        self._k = np.zeros((n_kv_heads, capacity, d_head), dtype=np.float32)
        self._v = np.zeros((n_kv_heads, capacity, d_head), dtype=np.float32)
        self._pos = np.zeros(capacity, dtype=np.int64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def keys(self) -> np.ndarray:
        """``(H_kv, len, d_head)`` view of live keys."""
        return self._k[:, : self._len]

    @property
    def values(self) -> np.ndarray:
        return self._v[:, : self._len]

    @property
    def positions(self) -> np.ndarray:
        """Absolute positions of live entries (monotone increasing)."""
        return self._pos[: self._len]

    def _grow(self, needed: int) -> None:
        cap = self._k.shape[1]
        if needed <= cap:
            return
        new_cap = max(needed, cap * 2)
        for name in ("_k", "_v"):
            old = getattr(self, name)
            grown = np.zeros((old.shape[0], new_cap, old.shape[2]), dtype=old.dtype)
            grown[:, :cap] = old
            setattr(self, name, grown)
        pos = np.zeros(new_cap, dtype=np.int64)
        pos[:cap] = self._pos
        self._pos = pos

    def append(self, k: np.ndarray, v: np.ndarray, positions: np.ndarray) -> None:
        """Append ``(H_kv, n, d_head)`` keys/values at absolute ``positions``."""
        n = k.shape[1]
        if v.shape != k.shape or positions.shape != (n,):
            raise ModelError("append: inconsistent shapes")
        if self._len and n and positions[0] <= self._pos[self._len - 1]:
            raise ModelError(
                f"append: positions must increase; got {positions[0]} after "
                f"{self._pos[self._len - 1]}"
            )
        self._grow(self._len + n)
        self._k[:, self._len : self._len + n] = k
        self._v[:, self._len : self._len + n] = v
        self._pos[self._len : self._len + n] = positions
        self._len += n

    def truncate(self, length: int) -> None:
        """Roll the cache back to its first ``length`` entries.

        Failure recovery: a model step that dies partway has already
        appended its keys/values in the layers it reached, so
        :meth:`~repro.model.transformer.Transformer.prefill_chunk_batch`
        and :meth:`~repro.model.transformer.Transformer.decode_batch`
        rewind every layer of a dropped or raising entry to its pre-step
        length, and a retry never double-appends.  Truncation only moves
        the live length; the overallocated arrays are reused by the retry.

        Edge-case contract (validated, never clamped):

        * ``truncate(0)`` empties the cache completely -- views become
          zero-length, and a subsequent :meth:`append` may start at any position (the
          monotonicity check has nothing to compare against).
        * ``truncate(len(cache))`` is a no-op.
        * ``length < 0`` or ``length > len(cache)`` raises
          :class:`~repro.errors.ModelError` (a rollback mark can never
          exceed the live length it was taken from, so an out-of-range
          request is a caller bug, not a state to silently absorb).
        """
        if length < 0 or length > self._len:
            raise ModelError(
                f"truncate: length {length} outside [0, {self._len}]"
            )
        self._len = length

    def evict(self, keep_per_head: list[np.ndarray]) -> None:
        """Retain only ``keep_per_head`` indices.

        KV caches are per-KV-head; heavy-hitter policies produce per-head
        index sets of equal size.  All sets must have the same length (the
        cache stays rectangular), which H2O's budgeted selection guarantees.
        """
        h_kv = self._k.shape[0]
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
        new_k = np.stack([self._k[h, keep_per_head[h]] for h in range(h_kv)])
        new_v = np.stack([self._v[h, keep_per_head[h]] for h in range(h_kv)])
        # Positions may now differ per head; keep head 0's as representative
        # (only used for monotonicity checks on append).
        new_pos = self._pos[keep_per_head[0]]
        self._k[:, :new_len] = new_k
        self._v[:, :new_len] = new_v
        self._pos[:new_len] = new_pos
        self._len = new_len
