"""Paged KV memory subsystem (vLLM-style, on the numpy substrate).

Decode-phase serving capacity is bounded by KV bytes per session, not
FLOPs; this package turns the engine's per-request contiguous caches into
block tables over one global :class:`KVArena`:

* :class:`KVArena` -- fixed-size KV blocks, O(1) free-list alloc/free,
  refcounts, zero-copy views over contiguous block runs.
* :class:`PagedLayerKVCache` -- drop-in ``LayerKVCache`` replacement
  holding a block table; copy-on-write forking, atomic appends, and an
  incremental contiguous mirror so a read feeding the existing kernels
  copies only the tokens appended since the last one.
* :class:`PrefixSharingRegistry` -- chain-hashed token prefixes map to
  physical blocks so repeated system prompts share storage.
* :class:`EvictionPolicy` and its one implementation,
  :class:`HeavyHitterPolicy` -- live cache shrinking under pressure.
* :class:`MemoryPressureController` -- the ``evict -> shed``
  degradation rung the serving engine walks on
  :class:`~repro.errors.ArenaExhaustedError`.
"""

from .arena import KVArena
from .eviction import EvictionPolicy, HeavyHitterPolicy
from .gather import BatchedKVGather
from .paged_cache import PagedLayerKVCache
from .pressure import MEMORY_PRESSURE_LEVELS, MemoryPressureController
from .sharing import PrefixSharingRegistry, prefix_block_keys

__all__ = [
    "BatchedKVGather",
    "EvictionPolicy",
    "HeavyHitterPolicy",
    "KVArena",
    "MEMORY_PRESSURE_LEVELS",
    "MemoryPressureController",
    "PagedLayerKVCache",
    "PrefixSharingRegistry",
    "prefix_block_keys",
]
