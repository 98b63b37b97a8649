"""Fleet front-door routing: worker choice and the fleet degradation rung.

Per-request degradation (sparse -> widened -> dense -> shed) lives inside
each worker's :class:`~repro.serving.engine.ServingEngine`.  The fleet has
its *own* ladder, one level up: :data:`FLEET_RUNGS` ``normal -> reroute ->
brownout -> shed``, driven by aggregate worker availability rather than
CRA violations.  ``reroute`` is routing-around-the-sick (any non-healthy
worker exists, capacity intact); ``brownout`` shrinks the admission
queue's capacity to :data:`BROWNOUT_FACTOR` of its configured bound (half the
fleet or more is unavailable -- stop promising service we cannot give);
``shed`` is the terminal rung once every worker has exhausted its restart
budget.

Routing policies (:data:`ROUTING_POLICIES`):

* ``least_loaded`` -- the idle available worker with the least cumulative
  busy time (ties break to the lowest worker id, keeping runs
  deterministic);
* ``prefix_affinity`` -- the request's prompt prefix is chain-hashed with
  the same :func:`~repro.memory.sharing.prefix_block_keys` the PR-6
  prefix-sharing registry uses, and the first block's key picks a home
  worker; requests sharing a prefix land on the same worker's plan/KV
  caches.  Falls back to least-loaded when the home worker is busy or
  unavailable.
* ``sticky`` -- a session key (``session_of(request)``, default the
  request id) is pinned to the worker that first served it; the pin is
  re-homed (and re-recorded) when that worker is unavailable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..memory.sharing import prefix_block_keys
from .simulator import Request

__all__ = ["ROUTING_POLICIES", "FLEET_RUNGS", "Router"]

ROUTING_POLICIES = ("least_loaded", "prefix_affinity", "sticky")

#: The fleet-level degradation ladder, least degraded first.
FLEET_RUNGS = ("normal", "reroute", "brownout", "shed")

#: Fraction of the configured admission capacity kept during brownout
#: (floored at 1).
BROWNOUT_FACTOR = 0.5


class Router:
    """Pick a worker for each request; track the fleet-level rung.

    Parameters
    ----------
    n_workers:
        Fleet size.
    policy:
        One of :data:`ROUTING_POLICIES`.
    block_tokens:
        Chain-hash granularity for ``prefix_affinity`` (must match the
        workers' paged-KV ``block_tokens`` for the affinity to line up
        with actual prefix reuse).
    session_of:
        Session-key extractor for ``sticky`` (default: the request id --
        every request its own session, which still pins re-dispatches).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        policy: str = "least_loaded",
        block_tokens: int = 32,
        session_of: Callable[[Request], object] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {policy!r}; expected one of "
                f"{ROUTING_POLICIES}"
            )
        if block_tokens < 1:
            raise ConfigError(f"block_tokens must be >= 1, got {block_tokens}")
        self.n_workers = n_workers
        self.policy = policy
        self.block_tokens = block_tokens
        self.session_of = session_of or (lambda r: r.request_id)
        self.rung = "normal"
        self.rung_transitions: list[dict] = []
        self._affinity: dict[object, int] = {}  # sticky session -> worker
        self.routed = 0
        self.affinity_hits = 0
        self.affinity_fallbacks = 0

    # --------------------------------------------------------------- routing
    def route(
        self,
        request: Request,
        loads: list[float | None],
        *,
        tokens: np.ndarray | None = None,
    ) -> int | None:
        """Choose a worker for ``request`` or ``None`` if none is usable.

        ``loads[i]`` is worker *i*'s cumulative busy time when it is idle
        and available, ``None`` when it cannot take work right now (busy,
        suspect, dead, restarting, or stopped).  ``tokens`` is the
        request's executed prompt (required only by ``prefix_affinity``).
        """
        if len(loads) != self.n_workers:
            raise ConfigError(
                f"loads has {len(loads)} entries for {self.n_workers} workers"
            )
        candidates = [i for i, load in enumerate(loads) if load is not None]
        if not candidates:
            return None
        fallback = min(candidates, key=lambda i: (loads[i], i))
        pick = fallback
        if self.policy == "prefix_affinity":
            home = self._home_worker(tokens)
            if home is not None and loads[home] is not None:
                pick = home
                self.affinity_hits += 1
            else:
                self.affinity_fallbacks += 1
        elif self.policy == "sticky":
            key = self.session_of(request)
            pinned = self._affinity.get(key)
            if pinned is not None and loads[pinned] is not None:
                pick = pinned
                self.affinity_hits += 1
            else:
                if pinned is not None:
                    self.affinity_fallbacks += 1
                self._affinity[key] = pick
        self.routed += 1
        return pick

    def _home_worker(self, tokens: np.ndarray | None) -> int | None:
        """Home worker of a prompt: first chain-hash block key, folded onto
        the fleet.  Prompts shorter than one block have no home (least
        loaded wins)."""
        if tokens is None or tokens.size < self.block_tokens:
            return None
        keys = prefix_block_keys(
            np.asarray(tokens)[: self.block_tokens], self.block_tokens
        )
        if not keys:
            return None
        return int(keys[0][:8], 16) % self.n_workers

    # ------------------------------------------------------------ fleet rung
    def update_rung(
        self, n_available: int, n_live: int, now: float
    ) -> str:
        """Recompute the fleet rung from aggregate worker health.

        ``shed`` when no worker can ever come back; ``brownout`` when half
        the fleet or more is unavailable; ``reroute`` when anyone is
        unavailable; ``normal`` otherwise.
        """
        if n_live == 0:
            rung = "shed"
        elif n_available <= self.n_workers // 2:
            rung = "brownout"
        elif n_available < self.n_workers:
            rung = "reroute"
        else:
            rung = "normal"
        if rung != self.rung:
            self.rung_transitions.append(
                {
                    "t": float(now),
                    "from": self.rung,
                    "to": rung,
                    "available": int(n_available),
                    "live": int(n_live),
                }
            )
            self.rung = rung
        return rung

    def admission_capacity(self, base_capacity: int) -> int:
        """Admission-queue capacity under the current rung."""
        if self.rung == "shed":
            return 0
        if self.rung == "brownout":
            return max(1, int(base_capacity * BROWNOUT_FACTOR))
        return base_capacity

    def stats(self) -> dict:
        return {
            "policy": self.policy,
            "rung": self.rung,
            "rung_transitions": list(self.rung_transitions),
            "routed": self.routed,
            "affinity_hits": self.affinity_hits,
            "affinity_fallbacks": self.affinity_fallbacks,
        }
