"""Worker health supervision: heartbeats, death, and bounded restart.

The :class:`~repro.serving.fleet.FleetEngine` needs one authority on the
question "is worker *i* usable right now?".  This module is that
authority, deliberately separated from dispatch so its state machine can
be tested without running any attention:

* **health states** -- :data:`HEALTH_STATES`: ``healthy -> suspect ->
  dead``, driven by virtual-clock heartbeats.  :data:`SUSPECT_MISSES`
  consecutive missed beats demote a worker to suspect (still routable in
  principle, but the router avoids it); :data:`DEAD_MISSES` declare it
  dead.
  A single received beat fully rehabilitates a suspect.
* **death** -- declared either by the heartbeat state machine (a stall or
  an injected loss episode: the worker may actually be alive, which is
  how false positives and zombie completions arise) or directly by crash
  detection (:meth:`Supervisor.declare_dead`).
* **bounded restart with exponential backoff** -- a dead worker restarts
  after ``restart_backoff_s * 2**restarts``; after ``max_restarts``
  restarts it is *stopped* permanently and the fleet must live without
  it.

Every transition is recorded with its virtual-clock timestamp, so the
fleet drill can assert the exact supervision story bitwise across
same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["HEALTH_STATES", "WorkerHealth", "Supervisor"]

#: Worker health ladder, most alive first.
HEALTH_STATES = ("healthy", "suspect", "dead")

#: Consecutive missed heartbeats before ``healthy -> suspect`` and before
#: ``-> dead`` respectively.
SUSPECT_MISSES = 2
DEAD_MISSES = 4


@dataclass
class WorkerHealth:
    """One worker's supervision record."""

    worker_id: int
    state: str = "healthy"
    missed: int = 0  # consecutive missed heartbeats
    beats: int = 0  # heartbeats received over the run
    restarts: int = 0  # restarts consumed (bounded by max_restarts)
    stopped: bool = False  # permanently out (restart budget exhausted)
    transitions: list[dict] = field(default_factory=list)

    def _move(self, to_state: str, now: float, reason: str) -> None:
        self.transitions.append(
            {
                "t": float(now),
                "from": self.state,
                "to": to_state,
                "reason": reason,
            }
        )
        self.state = to_state

    def as_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "state": self.state,
            "beats": self.beats,
            "restarts": self.restarts,
            "stopped": self.stopped,
            "transitions": list(self.transitions),
        }


class Supervisor:
    """Health state machine over ``n_workers`` fleet workers.

    Parameters
    ----------
    n_workers:
        Fleet size.
    heartbeat_interval_s:
        Virtual-clock spacing of heartbeat sweeps (the fleet drives the
        sweeps; the supervisor only judges their outcomes).
    restart_backoff_s:
        Base of the exponential restart backoff: the ``k``-th restart of
        one worker waits ``restart_backoff_s * 2**k``.
    max_restarts:
        Restart budget per worker; exceeding it stops the worker for the
        rest of the run.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        heartbeat_interval_s: float = 0.25,
        restart_backoff_s: float = 0.25,
        max_restarts: int = 3,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if heartbeat_interval_s <= 0:
            raise ConfigError(
                f"heartbeat_interval_s must be > 0, got {heartbeat_interval_s}"
            )
        if restart_backoff_s < 0:
            raise ConfigError(
                f"restart_backoff_s must be >= 0, got {restart_backoff_s}"
            )
        if max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {max_restarts}")
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.max_restarts = max_restarts
        self.workers = [WorkerHealth(i) for i in range(n_workers)]
        self.deaths = 0
        self.restarts = 0

    # ------------------------------------------------------------- heartbeats
    def heartbeat(self, worker_id: int, now: float) -> None:
        """One beat received: a suspect is fully rehabilitated."""
        w = self.workers[worker_id]
        w.beats += 1
        w.missed = 0
        if w.state == "suspect":
            w._move("healthy", now, "heartbeat")

    def miss(self, worker_id: int, now: float) -> str:
        """One beat missed; returns the worker's (possibly new) state.

        The caller must treat a returned ``"dead"`` as a death event
        (drain + restart scheduling) -- the supervisor only rules."""
        w = self.workers[worker_id]
        if w.state == "dead" or w.stopped:
            return w.state
        w.missed += 1
        if w.missed >= DEAD_MISSES:
            self._die(w, now, "heartbeat_timeout")
        elif w.missed >= SUSPECT_MISSES and w.state == "healthy":
            w._move("suspect", now, "missed_heartbeats")
        return w.state

    # ----------------------------------------------------------------- death
    def declare_dead(self, worker_id: int, now: float, reason: str) -> None:
        """Out-of-band death (crash detection); idempotent on a dead
        worker."""
        w = self.workers[worker_id]
        if w.state != "dead":
            self._die(w, now, reason)

    def _die(self, w: WorkerHealth, now: float, reason: str) -> None:
        w._move("dead", now, reason)
        w.missed = 0
        self.deaths += 1

    # --------------------------------------------------------------- restart
    def can_restart(self, worker_id: int) -> bool:
        w = self.workers[worker_id]
        return not w.stopped and w.restarts < self.max_restarts

    def restart_delay(self, worker_id: int) -> float:
        """Backoff before the next restart of this worker."""
        return self.restart_backoff_s * (2.0 ** self.workers[worker_id].restarts)

    def restarted(self, worker_id: int, now: float) -> None:
        """The worker came back (fresh process state): healthy again."""
        w = self.workers[worker_id]
        w.restarts += 1
        w.missed = 0
        w._move("healthy", now, "restarted")
        self.restarts += 1

    def stop(self, worker_id: int, now: float) -> None:
        """Retire the worker permanently (restart budget exhausted)."""
        w = self.workers[worker_id]
        if w.stopped:
            return
        w.stopped = True
        w._move("dead", now, "stopped")

    # ------------------------------------------------------------------ query
    def available(self, worker_id: int) -> bool:
        """Routable right now: healthy and not retired."""
        w = self.workers[worker_id]
        return w.state == "healthy" and not w.stopped

    def n_available(self) -> int:
        return sum(
            1 for w in self.workers if w.state == "healthy" and not w.stopped
        )

    def n_live(self) -> int:
        """Workers not permanently retired (dead-but-restartable counts)."""
        return sum(1 for w in self.workers if not w.stopped)

    def stats(self) -> dict:
        return {
            "n_workers": len(self.workers),
            "deaths": self.deaths,
            "restarts": self.restarts,
            "n_stopped": sum(1 for w in self.workers if w.stopped),
            "workers": [w.as_dict() for w in self.workers],
        }
