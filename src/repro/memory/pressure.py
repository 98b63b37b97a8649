"""Memory-pressure ladder: registry shrink -> live eviction -> shed.

This is the *memory* analogue of the serving engine's per-request
degradation ladder (``sparse -> widened -> dense -> shed``).  Where that
ladder trades accuracy for compute, this one trades KV residency for
capacity, one rung at a time:

``normal``
    Arena has free blocks; nothing to do.
``evict``
    First drop prefix-sharing registry entries (lossless -- shared blocks
    merely lose their keep-alive refs), then run the configured
    :class:`~repro.memory.EvictionPolicy` over decode-phase caches
    (lossy but attention-guided).
``shed``
    Nothing more to reclaim: the controller reports failure and the engine
    sheds the requesting job, mirroring the attention ladder's terminal
    rung.

The controller is pure bookkeeping over the arena/registry/policy objects
-- it never touches the model -- so it is reusable by the engine, the
memory drill, and tests alike.
"""

from __future__ import annotations

from ..errors import ArenaExhaustedError, ConfigError
from .arena import KVArena
from .eviction import EvictionPolicy
from .sharing import PrefixSharingRegistry

__all__ = ["MEMORY_PRESSURE_LEVELS", "MemoryPressureController"]

#: Pressure rungs in escalation order (terminal rung sheds the requester).
MEMORY_PRESSURE_LEVELS = ("normal", "evict", "shed")


class MemoryPressureController:
    """Walks the pressure ladder until ``need_blocks`` are free (or not).

    Parameters
    ----------
    arena, registry:
        The pool being relieved and the sharing registry whose entries are
        the first (lossless) thing to drop.
    policy:
        Eviction policy applied to candidate caches on the ``evict`` rung.
    evict_to_fraction:
        Eviction target: shrink a cache to this fraction of its current
        length (floored at ``min_keep_tokens``).
    min_keep_tokens:
        Never evict a cache below this many tokens -- decode needs local
        context to stay meaningful (mirrors the engine's minimum executed
        prefix).
    """

    def __init__(
        self,
        arena: KVArena,
        registry: PrefixSharingRegistry | None,
        policy: EvictionPolicy,
        *,
        evict_to_fraction: float = 0.5,
        min_keep_tokens: int = 64,
    ) -> None:
        if not 0.0 < evict_to_fraction < 1.0:
            raise ConfigError(
                f"evict_to_fraction must be in (0, 1), "
                f"got {evict_to_fraction}"
            )
        if min_keep_tokens < 1:
            raise ConfigError(
                f"min_keep_tokens must be >= 1, got {min_keep_tokens}"
            )
        self.arena = arena
        self.registry = registry
        self.policy = policy
        self.evict_to_fraction = evict_to_fraction
        self.min_keep_tokens = min_keep_tokens
        #: Current rung (resets to "normal" after successful relief).
        self.level = "normal"
        #: Highest rung ever reached (monotone, for telemetry).
        self.peak_level = "normal"
        # Monotone counters.
        self.exhaustion_events = 0
        self.registry_blocks_dropped = 0
        self.caches_evicted = 0
        self.evictions_skipped = 0
        self.shed_signals = 0

    def _raise_level(self, level: str) -> None:
        self.level = level
        order = MEMORY_PRESSURE_LEVELS.index
        if order(level) > order(self.peak_level):
            self.peak_level = level

    # ---------------------------------------------------------------- relief
    def relieve(self, candidates: list, need_blocks: int = 1) -> bool:
        """Try to free ``need_blocks`` arena blocks.

        ``candidates`` are decode-phase cache lists (one
        ``PagedLayerKVCache`` per layer per job), largest-first eviction
        order is chosen here.  Returns ``True`` when enough blocks are
        free afterwards; ``False`` means the terminal ``shed`` rung was
        reached and the caller must shed.
        """
        if need_blocks < 1:
            raise ConfigError(
                f"need_blocks must be >= 1, got {need_blocks}"
            )
        self.exhaustion_events += 1
        if self.arena.blocks_free >= need_blocks:
            self.level = "normal"
            return True

        # Rung 1a: drop sharing-registry entries (lossless).
        self._raise_level("evict")
        if self.registry is not None:
            while (
                self.arena.blocks_free < need_blocks and len(self.registry)
            ):
                self.registry_blocks_dropped += self.registry.shrink(1)
        if self.arena.blocks_free >= need_blocks:
            self.level = "normal"
            return True

        # Rung 1b: live eviction over candidate caches, largest first.
        order = sorted(
            range(len(candidates)),
            key=lambda i: -sum(len(c) for c in candidates[i]),
        )
        for i in order:
            if self.arena.blocks_free >= need_blocks:
                break
            for cache in candidates[i]:
                target = max(
                    self.min_keep_tokens,
                    int(len(cache) * self.evict_to_fraction),
                )
                keep = self.policy.select(cache, target)
                if keep is None:
                    continue
                try:
                    cache.evict(keep)
                except ArenaExhaustedError:
                    # A victim whose blocks are CoW-shared may net-free
                    # fewer blocks than its rewrite needs; evict() fails
                    # atomically (victim intact), and the ladder moves on
                    # to the next candidate / rung instead of crashing
                    # the engine with a half-destroyed cache.
                    self.evictions_skipped += 1
                    continue
                self.caches_evicted += 1
        if self.arena.blocks_free >= need_blocks:
            self.level = "normal"
            return True

        # Rung 2: nothing left -- shed.
        self._raise_level("shed")
        self.shed_signals += 1
        return False

    # ------------------------------------------------------------ reporting
    def stats(self) -> dict:
        """Telemetry snapshot (JSON-friendly)."""
        return {
            "level": self.level,
            "peak_level": self.peak_level,
            "exhaustion_events": self.exhaustion_events,
            "registry_blocks_dropped": self.registry_blocks_dropped,
            "caches_evicted": self.caches_evicted,
            "evictions_skipped": self.evictions_skipped,
            "shed_signals": self.shed_signals,
        }
