"""Block-level attention masks.

Every sparse method in the package (SampleAttention and all baselines) is
expressed as a *block mask*: a boolean tensor ``(H, n_qblocks, n_kblocks)``
over tiles of ``block_size x block_size`` score entries.  Working at block
granularity is what makes the patterns "hardware-efficient" in the paper's
sense -- a GPU kernel can skip a whole tile, but not an individual element.

:class:`BlockMask` wraps the tensor with density accounting (used by the
performance model), conversion to an elementwise dense mask (used by the
analysis module and the dense gold-standard kernel), and set algebra
(union/intersection) used to merge window, stripe, sink and random patterns.

SampleAttention's own plan is finer than tiles -- a local window, extra
diagonal bands and per-head stripe columns -- and the packed kernel
executes it at that granularity.  The plan's *element* geometry lives here
too, next to the tile view of the same structure: :func:`normalise_bands`
and :func:`normalise_indices` canonicalise what the kernel executes, and
:func:`striped_element_counts` predicts its per-head score-element count
without running it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, MaskError, ShapeError

__all__ = [
    "BlockMask",
    "num_blocks",
    "causal_block_mask",
    "window_block_mask",
    "stripe_block_mask",
    "sink_block_mask",
    "global_block_mask",
    "random_block_mask",
    "dense_rows_block_mask",
    "block_diagonal_mask",
    "normalise_bands",
    "normalise_indices",
    "striped_element_counts",
]


def num_blocks(length: int, block_size: int) -> int:
    """Number of tiles covering ``length`` positions (ceil division)."""
    if length < 0 or block_size < 1:
        raise ShapeError(f"invalid length={length} or block_size={block_size}")
    return -(-length // block_size)


@dataclass(frozen=True)
class BlockMask:
    """A per-head boolean tile mask over the attention score grid.

    Attributes
    ----------
    blocks:
        ``(H, n_qblocks, n_kblocks)`` boolean array, ``True`` = compute tile.
    block_size:
        Tile edge in score-matrix elements.
    s_q, s_k:
        Logical (un-padded) sequence lengths the mask addresses.
    """

    blocks: np.ndarray
    block_size: int
    s_q: int
    s_k: int

    def __post_init__(self) -> None:
        if self.blocks.ndim != 3:
            raise MaskError(f"blocks must be rank-3, got rank {self.blocks.ndim}")
        if self.blocks.dtype != np.bool_:
            raise MaskError(f"blocks must be boolean, got {self.blocks.dtype}")
        nq = num_blocks(self.s_q, self.block_size)
        nk = num_blocks(self.s_k, self.block_size)
        if self.blocks.shape[1:] != (nq, nk):
            raise MaskError(
                f"blocks shape {self.blocks.shape} inconsistent with "
                f"s_q={self.s_q}, s_k={self.s_k}, block_size={self.block_size}"
            )

    # ----------------------------------------------------------------- algebra
    def _check_compatible(self, other: "BlockMask") -> None:
        if (
            self.block_size != other.block_size
            or self.s_q != other.s_q
            or self.s_k != other.s_k
            or self.blocks.shape != other.blocks.shape
        ):
            raise MaskError("BlockMask operands have incompatible geometry")

    def union(self, other: "BlockMask") -> "BlockMask":
        """Elementwise OR of two masks (attend if either pattern says so)."""
        self._check_compatible(other)
        return BlockMask(self.blocks | other.blocks, self.block_size, self.s_q, self.s_k)

    def intersect(self, other: "BlockMask") -> "BlockMask":
        """Elementwise AND (e.g. restricting any pattern to causal tiles)."""
        self._check_compatible(other)
        return BlockMask(self.blocks & other.blocks, self.block_size, self.s_q, self.s_k)

    def __or__(self, other: "BlockMask") -> "BlockMask":
        return self.union(other)

    def __and__(self, other: "BlockMask") -> "BlockMask":
        return self.intersect(other)

    # ------------------------------------------------------------- accounting
    @property
    def n_heads(self) -> int:
        return self.blocks.shape[0]

    def active_blocks(self) -> np.ndarray:
        """Per-head count of active tiles, shape ``(H,)``."""
        return self.blocks.sum(axis=(1, 2))

    def density(self, *, relative_to_causal: bool = True) -> float:
        """Mean fraction of active tiles across heads.

        With ``relative_to_causal=True`` the denominator is the number of
        causally reachable tiles (the cost a causal FlashAttention kernel
        pays), so ``density == 1.0`` means "as expensive as dense causal".
        """
        if relative_to_causal:
            denom = int(
                causal_block_mask(1, self.s_q, self.s_k, self.block_size)
                .blocks.sum()
            )
        else:
            denom = self.blocks.shape[1] * self.blocks.shape[2]
        if denom == 0:
            return 0.0
        return float(self.active_blocks().mean() / denom)

    def kv_coverage(self) -> np.ndarray:
        """Per-head fraction of key blocks touched by at least one query block."""
        touched = self.blocks.any(axis=1).sum(axis=1)
        nk = self.blocks.shape[2]
        return touched / max(nk, 1)

    # ------------------------------------------------------------- conversion
    def to_dense(self) -> np.ndarray:
        """Expand to an elementwise boolean mask ``(H, s_q, s_k)``."""
        b = self.block_size
        expanded = np.repeat(np.repeat(self.blocks, b, axis=1), b, axis=2)
        return expanded[:, : self.s_q, : self.s_k]

    def validate_causal_rows(self) -> None:
        """Raise :class:`MaskError` if any causally valid query row would be
        left with zero attendable keys (a kernel-breaking mask)."""
        dense = self.to_dense()
        from .utils import causal_mask  # local import to avoid cycle

        reachable = dense & causal_mask(self.s_q, self.s_k)[None]
        empty = ~reachable.any(axis=2)
        if empty.any():
            h, i = np.argwhere(empty)[0]
            raise MaskError(f"head {h} query row {i} has no attendable keys")


# ---------------------------------------------------------------------------
# Builders.  All builders produce masks already intersected with causality
# unless documented otherwise, since every kernel in the paper is causal.
# ---------------------------------------------------------------------------


def _grid(n_heads: int, s_q: int, s_k: int, block_size: int) -> tuple[int, int]:
    if n_heads < 1:
        raise ShapeError(f"n_heads must be >= 1, got {n_heads}")
    return num_blocks(s_q, block_size), num_blocks(s_k, block_size)


def _block_positions(s_q: int, s_k: int, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Last absolute query position per query block row, and first key
    position per key block column."""
    nq = num_blocks(s_q, block_size)
    nk = num_blocks(s_k, block_size)
    offset = s_k - s_q
    q_last = np.minimum((np.arange(nq) + 1) * block_size - 1, s_q - 1) + offset
    k_first = np.arange(nk) * block_size
    return q_last, k_first


def causal_block_mask(n_heads: int, s_q: int, s_k: int, block_size: int) -> BlockMask:
    """Tiles at-or-below the (right-aligned) causal diagonal."""
    nq, nk = _grid(n_heads, s_q, s_k, block_size)
    q_last, k_first = _block_positions(s_q, s_k, block_size)
    grid = k_first[None, :] <= q_last[:, None]
    blocks = np.broadcast_to(grid, (n_heads, nq, nk)).copy()
    return BlockMask(blocks, block_size, s_q, s_k)


def window_block_mask(
    n_heads: int, s_q: int, s_k: int, block_size: int, window: int
) -> BlockMask:
    """Causal local-window tiles: query position ``p`` sees keys in
    ``[p - window + 1, p]``.  ``window`` is in tokens and must be ``>= 1``
    (the same invariant :meth:`repro.core.SparsePlan.validate` enforces; a
    zero-width band would leave every row empty, which no kernel here
    supports).  Tiles partially inside the band are included whole (a kernel
    computes full tiles)."""
    if window < 1:
        raise MaskError(f"window must be >= 1, got {window}")
    nq, nk = _grid(n_heads, s_q, s_k, block_size)
    offset = s_k - s_q
    q_first = np.arange(nq) * block_size + offset
    q_last = np.minimum((np.arange(nq) + 1) * block_size - 1, s_q - 1) + offset
    k_first = np.arange(nk) * block_size
    k_last = np.minimum((np.arange(nk) + 1) * block_size - 1, s_k - 1)
    # Tile active iff the band [p-window+1, p] for some row p of the block
    # intersects the tile's key range, i.e. k_first <= q_last and
    # k_last >= q_first - window + 1.
    grid = (k_first[None, :] <= q_last[:, None]) & (
        k_last[None, :] >= q_first[:, None] - (window - 1)
    )
    blocks = np.broadcast_to(grid, (n_heads, nq, nk)).copy()
    return BlockMask(blocks, block_size, s_q, s_k)


def stripe_block_mask(
    kv_indices: list[np.ndarray] | np.ndarray,
    s_q: int,
    s_k: int,
    block_size: int,
) -> BlockMask:
    """Column-stripe tiles from per-head key/value token indices ``I_KV``.

    ``kv_indices`` is a length-``H`` sequence; element ``h`` holds the token
    indices selected for head ``h`` (possibly empty).  The tile containing
    each index is activated for every causally reachable query block.
    """
    if isinstance(kv_indices, np.ndarray) and kv_indices.ndim == 1:
        kv_indices = [kv_indices]
    n_heads = len(kv_indices)
    nq, nk = _grid(n_heads, s_q, s_k, block_size)
    q_last, k_first = _block_positions(s_q, s_k, block_size)
    causal_grid = k_first[None, :] <= q_last[:, None]

    blocks = np.zeros((n_heads, nq, nk), dtype=bool)
    for h, idx in enumerate(kv_indices):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            continue
        if idx.min() < 0 or idx.max() >= s_k:
            raise MaskError(
                f"head {h}: kv indices out of range [0, {s_k}), "
                f"got min={idx.min()}, max={idx.max()}"
            )
        cols = np.unique(idx // block_size)
        blocks[h][:, cols] = True
        blocks[h] &= causal_grid
    return BlockMask(blocks, block_size, s_q, s_k)


def sink_block_mask(
    n_heads: int, s_q: int, s_k: int, block_size: int, sink_tokens: int
) -> BlockMask:
    """Attention-sink tiles: the first ``sink_tokens`` key positions,
    visible to every causally reachable query block (StreamingLLM's sink)."""
    if sink_tokens <= 0:
        nq, nk = _grid(n_heads, s_q, s_k, block_size)
        return BlockMask(np.zeros((n_heads, nq, nk), dtype=bool), block_size, s_q, s_k)
    idx = np.arange(min(sink_tokens, s_k))
    return stripe_block_mask([idx] * n_heads, s_q, s_k, block_size)


def global_block_mask(
    n_heads: int,
    s_q: int,
    s_k: int,
    block_size: int,
    global_tokens: int,
) -> BlockMask:
    """BigBird-style global tokens: the first ``global_tokens`` positions are
    attended by everyone (row direction ignored -- causal attention means
    global *columns* are the only realisable half of BigBird's pattern)."""
    return sink_block_mask(n_heads, s_q, s_k, block_size, global_tokens)


def random_block_mask(
    n_heads: int,
    s_q: int,
    s_k: int,
    block_size: int,
    ratio: float,
    rng: np.random.Generator,
) -> BlockMask:
    """Random causal tiles, ~``ratio`` of the causally reachable tiles,
    sampled independently per head (BigBird's random component)."""
    if not 0.0 <= ratio <= 1.0:
        raise MaskError(f"ratio must be in [0, 1], got {ratio}")
    causal = causal_block_mask(n_heads, s_q, s_k, block_size)
    keep = rng.random(causal.blocks.shape) < ratio
    return BlockMask(causal.blocks & keep, block_size, s_q, s_k)


def dense_rows_block_mask(
    n_heads: int, s_q: int, s_k: int, block_size: int, last_rows: int
) -> BlockMask:
    """The paper's "bottom area": the last ``last_rows`` query rows attend to
    every causally reachable key tile."""
    nq, nk = _grid(n_heads, s_q, s_k, block_size)
    blocks = np.zeros((n_heads, nq, nk), dtype=bool)
    if last_rows > 0 and s_q > 0:
        first_row = max(s_q - last_rows, 0)
        first_block = first_row // block_size
        q_last, k_first = _block_positions(s_q, s_k, block_size)
        causal_grid = k_first[None, :] <= q_last[:, None]
        blocks[:, first_block:, :] = causal_grid[first_block:, :]
    return BlockMask(blocks, block_size, s_q, s_k)


def block_diagonal_mask(
    bucket_of_q: np.ndarray,
    bucket_of_k: np.ndarray,
    s_q: int,
    s_k: int,
    block_size: int,
) -> BlockMask:
    """Bucketed attention tiles: tile (i, j) is active for head ``h`` when the
    query tile and key tile share at least one bucket label.

    ``bucket_of_q``: ``(H, s_q)`` integer labels; ``bucket_of_k``: ``(H, s_k)``.
    Used by the Hash-Sparse and HyperAttention baselines.  The result is
    intersected with causality.
    """
    if bucket_of_q.ndim != 2 or bucket_of_k.ndim != 2:
        raise MaskError("bucket label arrays must be rank-2 (H, S)")
    n_heads = bucket_of_q.shape[0]
    if bucket_of_k.shape[0] != n_heads:
        raise MaskError("query/key bucket arrays disagree on head count")
    if bucket_of_q.shape[1] != s_q or bucket_of_k.shape[1] != s_k:
        raise MaskError("bucket label arrays disagree with sequence lengths")
    nq, nk = _grid(n_heads, s_q, s_k, block_size)
    n_buckets = int(max(bucket_of_q.max(initial=0), bucket_of_k.max(initial=0))) + 1

    # Tile -> bucket incidence, then tile-tile adjacency via shared buckets.
    blocks = np.zeros((n_heads, nq, nk), dtype=bool)
    for h in range(n_heads):
        q_inc = np.zeros((nq, n_buckets), dtype=bool)
        k_inc = np.zeros((nk, n_buckets), dtype=bool)
        q_tiles = np.arange(s_q) // block_size
        k_tiles = np.arange(s_k) // block_size
        q_inc[q_tiles, bucket_of_q[h]] = True
        k_inc[k_tiles, bucket_of_k[h]] = True
        blocks[h] = q_inc @ k_inc.T  # bool matmul: shared-bucket adjacency
    q_last, k_first = _block_positions(s_q, s_k, block_size)
    causal_grid = k_first[None, :] <= q_last[:, None]
    blocks &= causal_grid[None]
    return BlockMask(blocks, block_size, s_q, s_k)


# --------------------------------------------------------------------------
# Element-level plan geometry: window / diagonal bands + per-head stripes.
# --------------------------------------------------------------------------


def normalise_bands(
    window: int, bands: list[tuple[int, int]] | None
) -> list[tuple[int, int]]:
    """Merge the window with extra diagonal bands into disjoint, sorted
    relative-distance intervals ``[d_lo, d_hi)``.

    A band covers key ``j`` for query row ``i`` iff ``d_lo <= i - j < d_hi``;
    the local window is the interval ``[0, window)``.  Extra bands capture
    *diagonal* score patterns at non-zero offsets (paper Appendix A.6's
    "other pattern" future work).  Overlapping or adjacent intervals are
    merged so ownership is unambiguous and counts stay additive; the first
    interval of the result always starts at 0 (the window, widened by any
    band touching it).
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    intervals = [(0, int(window))]
    for d_lo, d_hi in bands or ():
        if d_lo < 0 or d_hi <= d_lo:
            raise ConfigError(f"invalid band ({d_lo}, {d_hi}): need 0 <= lo < hi")
        intervals.append((int(d_lo), int(d_hi)))
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def normalise_indices(
    kv_indices: list[np.ndarray], h: int, s_k: int, sink_tokens: int
) -> list[np.ndarray]:
    """Per-head sorted, unique stripe ∪ sink columns as ``int64`` arrays;
    a wrong head count or an index outside ``[0, s_k)`` is a
    :class:`~repro.errors.MaskError`."""
    if len(kv_indices) != h:
        raise MaskError(f"got {len(kv_indices)} stripe sets for {h} heads")
    sinks = np.arange(min(max(sink_tokens, 0), s_k), dtype=np.int64)
    out = []
    for hh, idx in enumerate(kv_indices):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= s_k):
            raise MaskError(f"head {hh}: stripe index out of range [0, {s_k})")
        out.append(np.union1d(idx, sinks))
    return out


def striped_element_counts(
    s_q: int,
    s_k: int,
    window: int,
    kv_indices: list[np.ndarray],
    *,
    sink_tokens: int = 0,
    dense_last_rows: int = 0,
    bands: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Analytic per-head score-element counts of a window + band + stripe
    plan.

    Equals :attr:`~repro.attention.packed.PackedPrefillResult.computed_elements`
    without running the kernel -- the performance model uses this to bill
    paper-scale plans.  Each causal element is owned once: by the band
    interval holding its distance, else by a stripe/sink column, and the
    trailing ``dense_last_rows`` own their whole causal row.
    """
    h = len(kv_indices)
    intervals = normalise_bands(window, bands)
    stripes = normalise_indices(kv_indices, h, s_k, sink_tokens)
    offset = s_k - s_q
    rows = np.arange(s_q, dtype=np.int64) + offset  # absolute positions
    dense_row_start = s_q - min(max(dense_last_rows, 0), s_q)
    dense = np.arange(s_q) >= dense_row_start
    nd_rows = rows[~dense]

    # Band elements: per interval, each non-dense row i owns distances
    # [d_lo, d_hi) clipped to [0, i].
    band_total = 0
    for d_lo, d_hi in intervals:
        hi_key = nd_rows - d_lo  # largest key in interval, per row
        lo_key = np.maximum(0, nd_rows - d_hi + 1)
        band_total += int(np.maximum(0, hi_key - lo_key + 1).sum())
    band_total += int((rows[dense] + 1).sum())  # dense rows own everything

    r_lo = offset  # absolute range of non-dense rows: [r_lo, r_hi)
    r_hi = offset + dense_row_start

    counts = np.empty(h, dtype=np.int64)
    for hh in range(h):
        idx = stripes[hh]
        if idx.size == 0:
            counts[hh] = band_total
            continue
        owned = np.maximum(0, r_hi - np.maximum(idx, r_lo)).astype(np.int64)
        for d_lo, d_hi in intervals:
            excl = np.maximum(
                0,
                np.minimum(r_hi, idx + d_hi) - np.maximum(r_lo, idx + d_lo),
            )
            owned -= excl.astype(np.int64)
        counts[hh] = band_total + int(np.maximum(owned, 0).sum())
    return counts
