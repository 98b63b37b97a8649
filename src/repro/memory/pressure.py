"""Memory-pressure ladder: registry shrink -> shed.

This is the *memory* analogue of the serving engine's per-request
degradation ladder (``sparse -> widened -> dense -> shed``), with one
difference: it never trades accuracy.  A request that completes under
pressure decodes over exactly the KV it would have had on an unpressured
arena.

``normal``
    Arena has free blocks; nothing to do.
``evict``
    Drop prefix-sharing registry entries, least recently used first
    (lossless -- shared blocks merely lose their keep-alive refs; no
    request's KV changes).
``shed``
    Nothing more to reclaim: the controller reports failure and the engine
    sheds the requesting job, mirroring the attention ladder's terminal
    rung.

No rung evicts a live request's KV: ``docs/MEMORY.md`` (*Decided: no
live eviction*) records why and what would bring it back.  The controller is
pure bookkeeping over the arena and registry objects -- it never touches
the model -- so it is reusable by the engine, the memory drill, and tests
alike.
"""

from __future__ import annotations

from ..errors import ConfigError
from .arena import KVArena
from .sharing import PrefixSharingRegistry

__all__ = [
    "MEMORY_PRESSURE_LEVELS",
    "MemoryPressureController",
]

#: Pressure rungs in escalation order (terminal rung sheds the requester).
MEMORY_PRESSURE_LEVELS = ("normal", "evict", "shed")


class MemoryPressureController:
    """Walks the pressure ladder until ``need_blocks`` are free (or not).

    Parameters
    ----------
    arena, registry:
        The pool being relieved and the sharing registry whose entries are
        the one thing the ladder may drop.
    """

    def __init__(
        self, arena: KVArena, registry: PrefixSharingRegistry | None
    ) -> None:
        self.arena = arena
        self.registry = registry
        #: Current rung (resets to "normal" after successful relief).
        self.level = "normal"
        #: Highest rung ever reached (monotone, for telemetry).
        self.peak_level = "normal"
        # Monotone counters.
        self.exhaustion_events = 0
        self.registry_blocks_dropped = 0
        self.shed_signals = 0

    def _raise_level(self, level: str) -> None:
        self.level = level
        order = MEMORY_PRESSURE_LEVELS.index
        if order(level) > order(self.peak_level):
            self.peak_level = level

    # ---------------------------------------------------------------- relief
    def relieve(self, need_blocks: int = 1) -> bool:
        """Try to free ``need_blocks`` arena blocks.

        Returns ``True`` when enough blocks are free afterwards; ``False``
        means the terminal ``shed`` rung was reached and the caller must
        shed.
        """
        if need_blocks < 1:
            raise ConfigError(
                f"need_blocks must be >= 1, got {need_blocks}"
            )
        self.exhaustion_events += 1
        if self.arena.blocks_free >= need_blocks:
            self.level = "normal"
            return True

        # Rung 1: drop sharing-registry entries (lossless).
        self._raise_level("evict")
        if self.registry is not None:
            while (
                self.arena.blocks_free < need_blocks and len(self.registry)
            ):
                self.registry_blocks_dropped += self.registry.shrink(1)
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
            "shed_signals": self.shed_signals,
        }
