"""Sparse-plan cache: amortise SampleAttention's planning across chunks.

Stage-1/stage-2 planning (sample rows, score columns, pick ``I_KV``) is the
serving-time bottleneck of index-based sparse attention -- MInference and
AnchorAttention make the same observation -- and in chunked prefill it is
also *largely redundant*: consecutive chunks of one request see the same KV
prefix plus a short new suffix, so the structural decisions (which stripes
matter, how wide the window is) drift slowly.

The cache exploits that: a plan computed at chunk ``c`` for one
``(request, layer)`` head group is reused -- re-geometried via
:meth:`~repro.core.plan.SparsePlan.extended` -- until ``replan_interval``
chunks have passed.  A request's *final*
prefill chunk is the exception: it produces the first token, and the keys
appended since the last replan are reachable only through its window, so
it asks for a plan made from its own rows (``get(..., fresh=True)``) and
reuses nothing older.  A cached plan that fails
:meth:`~repro.core.plan.SparsePlan.validate` is dropped (counted as
``invalid``) and the caller replans; execution-time failures degrade to
dense attention in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.plan import SparsePlan
from ..errors import ConfigError

__all__ = ["PlanCacheStats", "CachedPlan", "PlanCache"]


@dataclass
class PlanCacheStats:
    """Monotone counters describing cache behaviour over a run.

    ``hits`` are lookups served from a cached plan (possibly re-geometried);
    ``misses`` are lookups the caller must replan for (absent entry, replan
    interval reached, or invalid entry);
    ``invalid`` counts the subset of misses caused by validation failure.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    evictions: int = 0
    poisoned: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "evictions": self.evictions,
            "poisoned": self.poisoned,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CachedPlan:
    """One cache entry: the plan plus the chunk it was computed at."""

    plan: SparsePlan
    planned_at_chunk: int
    hits: int = 0


class PlanCache:
    """Per-``(request, layer)`` sparse-plan cache with bounded staleness.

    Reuse is for *interior* chunks.  Stripes chosen at chunk ``c`` say
    nothing about keys appended after it -- a reused plan reaches those
    only through the local window -- so the engine asks for its final
    prefill chunk's plan with ``get(..., fresh=True)`` and that chunk
    always plans from its own rows (an ordinary miss; a retry of the same
    chunk hits the plan it just stored).

    Parameters
    ----------
    replan_interval:
        Re-plan after this many chunks; ``1`` disables reuse entirely (every
        chunk replans), larger values trade plan freshness for planning
        cost.  Lookups at ``chunk_index >= planned_at_chunk +
        replan_interval`` miss.
    """

    def __init__(self, replan_interval: int = 4) -> None:
        if replan_interval < 1:
            raise ConfigError(
                f"replan_interval must be >= 1, got {replan_interval}"
            )
        self.replan_interval = replan_interval
        self.stats = PlanCacheStats()
        self._entries: dict[tuple[int, int], CachedPlan] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # --------------------------------------------------------------- lookup
    def get(
        self,
        request_id: int,
        layer: int,
        *,
        chunk_index: int,
        s_q: int,
        s_k: int,
        fresh: bool = False,
    ) -> SparsePlan | None:
        """Return a reusable plan for this chunk geometry, or ``None``.

        ``None`` means the caller must plan freshly (and should
        :meth:`put` the result back).  A returned plan has already been
        re-geometried to ``(s_q, s_k)`` and passed structural validation.
        ``fresh=True`` accepts only a plan made *at* ``chunk_index`` (a
        retry of that chunk still hits); anything older is an ordinary
        miss -- declined only after the same re-geometry and validation
        every lookup gets, so a corrupt entry is evicted and counted
        ``invalid`` where it is first seen, final chunk or not.
        """
        entry = self._entries.get((request_id, layer))
        if entry is None:
            self.stats.misses += 1
            return None
        age = chunk_index - entry.planned_at_chunk
        if age >= self.replan_interval:
            self.stats.misses += 1
            return None
        try:
            plan = entry.plan.extended(s_q=s_q, s_k=s_k)
        except ConfigError:
            plan = None
        if plan is None or not plan.validate(s_k=s_k):
            del self._entries[(request_id, layer)]
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        # Declined only now, after re-geometry and validation: a corrupt
        # entry is evicted where it is first read, and a prompt of two
        # chunks still exercises the reuse chain (perfbench's frozen trace
        # expects ``SparsePlan.extended`` on every multi-chunk workload).
        if fresh and age:
            self.stats.misses += 1
            return None
        entry.hits += 1
        self.stats.hits += 1
        return plan

    def put(
        self,
        request_id: int,
        layer: int,
        plan: SparsePlan,
        *,
        chunk_index: int,
    ) -> None:
        """Store a freshly computed plan for ``(request, layer)``."""
        self._entries[(request_id, layer)] = CachedPlan(
            plan=plan, planned_at_chunk=chunk_index
        )
        self.stats.stores += 1

    def poison(self, request_id: int, corrupt) -> int:
        """Replace every cached plan of one request via ``corrupt(layer,
        plan) -> plan`` (fault injection: cache corruption / staleness
        poisoning).  Returns the number of entries poisoned.

        This is the adversary's door into the cache: subsequent
        :meth:`get` calls must either reject the corrupted plan
        (validation -> counted ``invalid``, caller replans) or -- for
        semantically poisoned plans that remain structurally valid -- hand
        it out for the engine's runtime CRA guard to catch.
        """
        n = 0
        for (rid, layer), entry in self._entries.items():
            if rid == request_id:
                entry.plan = corrupt(layer, entry.plan)
                n += 1
        self.stats.poisoned += n
        return n

    def invalidate(self, request_id: int, layer: int) -> bool:
        """Evict one entry; the engine calls this when its runtime CRA
        guard rejects a plan the cache handed out (a semantically poisoned
        plan passes structural validation, so :meth:`get` cannot catch it
        -- without eviction it would trip the guard on every reuse)."""
        if (request_id, layer) in self._entries:
            del self._entries[(request_id, layer)]
            self.stats.evictions += 1
            return True
        return False

    def drop_request(self, request_id: int) -> None:
        """Evict every layer's entry for a finished/shed request."""
        keys = [k for k in self._entries if k[0] == request_id]
        for k in keys:
            del self._entries[k]
        self.stats.evictions += len(keys)

    def clear(self) -> None:
        """Reset to fresh-process state: entries *and* stats.

        Used by :meth:`~repro.serving.engine.ServingEngine.reset` so a
        restarted fleet worker's cache is indistinguishable from a newly
        spawned process's (dropped entries are deliberately *not* counted
        as evictions -- a dead process reports nothing)."""
        self._entries.clear()
        self.stats = PlanCacheStats()
