"""Supervised multi-worker serving: the fleet behind the front door.

One :class:`~repro.serving.engine.ServingEngine` is a single process; a
production deployment is N of them behind a router, and the interesting
engineering is everything that goes wrong in between.  This module is
that layer:

* :class:`EngineWorker` -- one worker, wrapping a private
  ``ServingEngine`` (its own KV arena, plan cache, and PR-2
  CircuitBreaker -- per-worker degradation is free once the engine is
  per-worker).  A finished execution reports the JSON payload
  :meth:`~repro.serving.engine.EngineResult.to_dict`; a crashed one
  reports nothing.
* :class:`FleetEngine` -- the front door.  Requests are admitted through
  the same :class:`~repro.serving.scheduler.AdmissionQueue` semantics the
  single engine uses, routed by a :class:`~repro.serving.router.Router`
  (least-loaded / prefix-affinity / sticky), and supervised by a
  :class:`~repro.serving.supervisor.Supervisor` (virtual-clock
  heartbeats, healthy -> suspect -> dead, bounded restart with
  exponential backoff).

The robustness loop, concretely: a worker that crashes (detected at its
virtual crash time) or goes silent past ``dead_misses`` heartbeats is
declared dead; its in-flight request is drained from the ledger, its
epoch is bumped, and it is re-dispatched with its *remaining* deadline
budget, at most ``max_redispatch`` extra times before the fleet sheds
it.  A worker declared dead on lost heartbeats may actually be alive --
its eventual completion arrives as a *zombie* and is fenced by the epoch
check (``fleet_stale_completions_fenced``), which is what makes
completion at-most-once.  Fleet-wide health drives the router's own
degradation rung (``normal -> reroute -> brownout -> shed``), so a sick
fleet stops promising service at the door instead of timing out inside.

Time is the same virtual clock the engine uses: workers execute eagerly
(their virtual duration is deterministic under roofline billing) and the
fleet replays completions, crashes, heartbeats, restarts, and arrivals
in virtual-time order.  Same seed, same story -- the fleet drill asserts
its summary bitwise across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..model import build_model
from ..model.transformer import Transformer
from .engine import EngineResult, ServingEngine, executed_prompt
from .faults import FaultInjector
from .router import ROUTING_POLICIES, Router
from .scheduler import AdmissionQueue
from .simulator import Request
from .supervisor import Supervisor
from .telemetry import MetricsRegistry, RequestTelemetry

__all__ = [
    "EngineWorker",
    "FleetResult",
    "FleetEngine",
]

#: Keyword arguments the fleet owns; passing them through to the worker
#: engines would split one policy across two layers.
_FLEET_OWNED_KWARGS = ("fault_injector", "deadline_s")

#: Inner-engine counters the fleet registry is authoritative for -- the
#: front door, not the worker, decides admission-flow outcomes, so these
#: are dropped when a delivered worker registry is folded in.
_ADMISSION_COUNTERS = frozenset(
    {"admitted", "rejected", "shed", "completed", "deadline_exceeded"}
)


class EngineWorker:
    """One fleet worker: a private :class:`ServingEngine`.

    The fleet executes one request at a time on it.  :meth:`restart`
    calls :meth:`ServingEngine.reset`, which gives the fresh-process
    state the supervisor's recovery story assumes.
    """

    def __init__(
        self,
        worker_id: int,
        model: Transformer | str,
        engine_kwargs: dict,
        *,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.worker_id = worker_id
        self._model = model
        self._engine_kwargs = dict(engine_kwargs)
        self._injector = fault_injector
        self.engine: ServingEngine | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        model = (
            build_model(self._model)
            if isinstance(self._model, str)
            else self._model
        )
        self.engine = ServingEngine(
            model, fault_injector=self._injector, **self._engine_kwargs
        )

    def execute(
        self,
        request: Request,
        deadline_s: float | None,
        crash_frac: float | None,
    ) -> tuple[str, dict | None, float]:
        """Synchronously serve one request (virtual time is not wall
        time, so blocking here costs nothing on the fleet clock).

        Returns ``(status, payload, virtual_duration)``.  ``payload`` is
        the :meth:`~repro.serving.engine.EngineResult.to_dict` of the
        run, or ``None`` for a crashed execution (a dead worker reports
        nothing); for a crash the duration is the fraction of the run's
        virtual time that elapsed before death.
        """
        assert self.engine is not None
        self.engine.deadline_s = deadline_s
        result = self.engine.run([request])
        tms = result.telemetry.requests
        duration = 0.0
        if tms and tms[0].finish is not None:
            duration = float(tms[0].finish)
        if crash_frac is not None:
            return "crashed", None, duration * float(crash_frac)
        return "ok", result.to_dict(), duration

    def restart(self) -> None:
        """Bring up a fresh incarnation (supervisor restart action)."""
        assert self.engine is not None
        self.engine.reset()

    def stop(self) -> None:
        self.engine = None


# ------------------------------------------------------------------ ledger
@dataclass
class _FleetJob:
    """One request's fleet-side ledger entry."""

    request: Request
    telemetry: RequestTelemetry
    index: int  # slot in the fleet registry's request list
    epoch: int = 0  # bumped when drained from a dead worker
    dispatches: int = 0
    worker_id: int | None = None  # current dispatch target
    started: float | None = None  # first dispatch time (sheddability)
    done: bool = False


@dataclass
class _Inflight:
    """One execution a worker currently owns (or a zombie incarnation)."""

    job: _FleetJob
    epoch: int
    start: float
    finish: float  # virtual event time: delivery, or death for a crash
    payload: dict | None
    crashed: bool
    stalled: bool


@dataclass
class _WorkerState:
    """Fleet-side per-worker bookkeeping (health lives in the Supervisor)."""

    worker: EngineWorker
    inflight: _Inflight | None = None
    down_until: float | None = None  # restart in progress
    exec_seq: int = 0  # keys worker_crash / worker_stall streams
    beat_index: int = 0  # keys the heartbeat_loss stream
    busy_seconds: float = 0.0
    executions: int = 0
    delivered: int = 0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


@dataclass
class FleetResult:
    """Outcome of one :meth:`FleetEngine.run`.

    ``telemetry`` holds the authoritative per-request records (worker
    timelines re-stamped onto the fleet clock) plus fleet counters and
    the delivered workers' merged execution counters; ``workers`` holds
    each worker's own view; ``fleet`` holds the supervision and routing
    story.  Quacks like :class:`~repro.serving.engine.EngineResult`, so
    :func:`~repro.serving.faults.check_recovery_invariants` and the PR-2
    chaos drill run against it unchanged.
    """

    telemetry: MetricsRegistry
    method: str
    workers: list[dict] = field(default_factory=list)
    fleet: dict = field(default_factory=dict)

    @property
    def requests(self) -> list[RequestTelemetry]:
        return self.telemetry.requests

    @property
    def completed(self) -> list[RequestTelemetry]:
        return self.telemetry.completed

    def summary(self) -> dict:
        return self.telemetry.summary()

    def to_dict(self) -> dict:
        return {
            "telemetry": self.telemetry.to_dict(),
            "method": self.method,
            "workers": self.workers,
            "fleet": self.fleet,
        }


class FleetEngine:
    """N supervised :class:`EngineWorker`\\ s behind one admission door.

    Parameters the fleet owns: ``max_queue``/``admission_policy`` bound
    the whole fleet (shrunk under brownout), ``deadline_s`` is measured
    from fleet arrival with the *remaining* budget handed to each
    dispatch, ``max_redispatch`` bounds crash re-dispatches per request,
    and the supervision knobs mirror
    :class:`~repro.serving.supervisor.Supervisor`.  Every other keyword
    argument is forwarded verbatim to each worker's
    :class:`~repro.serving.engine.ServingEngine` -- all workers share one
    configuration (and one ``seed``, so prompts are identical across
    workers and a re-dispatched request replays exactly).

    ``fault_injector`` is handed to both layers: the workers consult the
    per-(request, chunk) streams exactly as a single engine would, the
    fleet consults the per-(worker, execution) streams
    (``worker_crash`` / ``worker_stall`` / ``heartbeat_loss``) the
    engines never read.
    """

    def __init__(
        self,
        model: Transformer | str,
        *,
        n_workers: int = 3,
        routing_policy: str = "least_loaded",
        session_of=None,
        brownout_factor: float = 0.5,
        max_queue: int = 16,
        admission_policy: str = "reject",
        deadline_s: float | None = None,
        max_redispatch: int = 2,
        heartbeat_interval_s: float = 0.25,
        suspect_misses: int = 2,
        dead_misses: int = 4,
        restart_backoff_s: float = 0.25,
        max_restarts: int = 3,
        fault_injector: FaultInjector | None = None,
        **engine_kwargs,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if routing_policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {routing_policy!r}; expected one "
                f"of {ROUTING_POLICIES}"
            )
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        if max_redispatch < 0:
            raise ConfigError(
                f"max_redispatch must be >= 0, got {max_redispatch}"
            )
        for key in _FLEET_OWNED_KWARGS:
            if key in engine_kwargs:
                raise ConfigError(
                    f"{key!r} is fleet-owned; pass it to FleetEngine, not "
                    f"the worker engines"
                )
        self.model = model
        self.n_workers = n_workers
        self.routing_policy = routing_policy
        self.session_of = session_of
        self.brownout_factor = brownout_factor
        self.max_queue = max_queue
        self.admission_policy = admission_policy
        self.deadline_s = deadline_s
        self.max_redispatch = max_redispatch
        self.heartbeat_interval_s = heartbeat_interval_s
        self.suspect_misses = suspect_misses
        self.dead_misses = dead_misses
        self.restart_backoff_s = restart_backoff_s
        self.max_restarts = max_restarts
        self.fault_injector = fault_injector
        self.engine_kwargs = dict(engine_kwargs)
        self.method = engine_kwargs.get("method", "sample")
        self._length_scale = int(engine_kwargs.get("length_scale", 1))
        self._seed = int(engine_kwargs.get("seed", 0))
        self._block_tokens = int(engine_kwargs.get("block_tokens", 32))
        self._prompt_builder = engine_kwargs.get("prompt_builder")

    # ------------------------------------------------------ routing helpers
    def _route_tokens(self, request: Request) -> np.ndarray:
        """The tokens a worker would execute for ``request``, for
        prefix-affinity hashing only (no worker is touched)."""
        return executed_prompt(
            request,
            length_scale=self._length_scale,
            seed=self._seed,
            prompt_builder=self._prompt_builder,
        )

    # --------------------------------------------------------------- runner
    def run(self, requests: list[Request]) -> FleetResult:
        """Serve the stream across the fleet; every request terminal."""
        registry = MetricsRegistry()
        supervisor = Supervisor(
            self.n_workers,
            heartbeat_interval_s=self.heartbeat_interval_s,
            suspect_misses=self.suspect_misses,
            dead_misses=self.dead_misses,
            restart_backoff_s=self.restart_backoff_s,
            max_restarts=self.max_restarts,
        )
        router = Router(
            self.n_workers,
            policy=self.routing_policy,
            block_tokens=self._block_tokens,
            session_of=self.session_of,
            brownout_factor=self.brownout_factor,
        )
        workers = [
            _WorkerState(
                EngineWorker(
                    i,
                    self.model,
                    self.engine_kwargs,
                    fault_injector=self.fault_injector,
                )
            )
            for i in range(self.n_workers)
        ]
        for ws in workers:
            ws.worker.start()
        try:
            return self._serve(requests, registry, supervisor, router, workers)
        finally:
            for ws in workers:
                ws.worker.stop()

    def _serve(
        self,
        requests: list[Request],
        registry: MetricsRegistry,
        supervisor: Supervisor,
        router: Router,
        workers: list[_WorkerState],
    ) -> FleetResult:
        inj = self.fault_injector
        pending = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        queue: AdmissionQueue[_FleetJob] = AdmissionQueue(
            self.max_queue, self.admission_policy
        )
        zombies: list[_Inflight] = []
        now = 0.0
        idx = 0
        hb_next = supervisor.heartbeat_interval_s

        def sheddable(job: _FleetJob) -> bool:
            return job.started is None

        def finish_job(
            job: _FleetJob, outcome: str, t: float | None
        ) -> None:
            job.telemetry.outcome = outcome
            if t is not None:
                job.telemetry.finish = t
            registry.inc(outcome)
            job.done = True

        def admit(until: float) -> None:
            nonlocal idx
            queue.capacity = router.admission_capacity(self.max_queue)
            while idx < len(pending) and pending[idx].arrival <= until:
                r = pending[idx]
                idx += 1
                tm = registry.new_request(r.request_id, r.arrival, r.prompt_len)
                job = _FleetJob(
                    request=r,
                    telemetry=tm,
                    index=len(registry.requests) - 1,
                )
                if router.rung == "shed":
                    finish_job(job, "rejected", None)
                    registry.inc("fleet_shed_rung_rejections")
                    continue
                outcome = queue.offer(job, sheddable=sheddable)
                if outcome.shed is not None:
                    finish_job(outcome.shed, "shed", None)
                if outcome.admitted:
                    tm.outcome = "queued"
                    registry.inc("fleet_admitted")
                else:
                    finish_job(job, "rejected", None)
                    if router.rung == "brownout":
                        registry.inc("fleet_brownout_rejections")

        def deliver(infl: _Inflight, ws: _WorkerState) -> None:
            job = infl.job
            if infl.epoch != job.epoch or job.done:
                registry.inc("fleet_stale_completions_fenced")
                return
            wres = EngineResult.from_dict(infl.payload)
            wtm = wres.telemetry.requests[0]
            for name in ("first_chunk_start", "first_token"):
                value = getattr(wtm, name)
                if value is not None:
                    setattr(wtm, name, value + infl.start)
            wtm.arrival = job.request.arrival
            wtm.finish = infl.finish
            registry.requests[job.index] = wtm
            job.telemetry = wtm
            registry.inc(wtm.outcome)
            wd = wres.telemetry.to_dict()
            for name, value in wd["counters"].items():
                if name not in _ADMISSION_COUNTERS:
                    registry.inc(name, value)
            for name, values in wd["series"].items():
                for value in values:
                    registry.observe(name, value)
            ws.registry.merge(wres.telemetry, requests=False)
            ws.delivered += 1
            queue.remove(job)
            job.done = True

        def handle_death(wid: int, t: float, reason: str) -> None:
            ws = workers[wid]
            supervisor.declare_dead(wid, t, reason)
            infl = ws.inflight
            if infl is not None:
                ws.inflight = None
                if not infl.crashed:
                    # The incarnation is actually alive; its completion
                    # will arrive as a zombie and be fenced by epoch.
                    zombies.append(infl)
                job = infl.job
                job.epoch += 1
                job.worker_id = None
                if job.dispatches > self.max_redispatch:
                    queue.remove(job)
                    finish_job(job, "shed", t)
                    registry.inc("fleet_redispatch_exhausted")
                else:
                    registry.inc("fleet_redispatches")
            if supervisor.can_restart(wid):
                ws.down_until = t + supervisor.restart_delay(wid)
            else:
                supervisor.stop(wid, t)
                ws.worker.stop()
                registry.inc("fleet_workers_stopped")

        def on_worker_event(wid: int) -> None:
            ws = workers[wid]
            infl = ws.inflight
            assert infl is not None
            ws.busy_seconds += infl.finish - infl.start
            if infl.crashed:
                registry.inc("fault_worker_crash")
                registry.inc("fleet_worker_crashes")
                handle_death(wid, infl.finish, "crash")
            else:
                ws.inflight = None
                deliver(infl, ws)

        def sweep(t: float) -> None:
            for wid, ws in enumerate(workers):
                health = supervisor.workers[wid]
                if health.stopped or health.state == "dead":
                    continue  # the restart path owns dead workers
                beat = ws.beat_index
                ws.beat_index += 1
                silent = False
                if ws.inflight is not None and ws.inflight.stalled:
                    silent = True  # a stalled execution stops the heart
                elif inj is not None and inj.heartbeat_lost(wid, beat):
                    silent = True
                    registry.inc("fault_heartbeat_loss")
                if silent:
                    if supervisor.miss(wid, t) == "dead":
                        registry.inc("fleet_heartbeat_deaths")
                        handle_death(wid, t, "heartbeat_timeout")
                else:
                    supervisor.heartbeat(wid, t)

        def dispatch(t: float) -> None:
            while True:
                idle = [
                    i
                    for i, ws in enumerate(workers)
                    if supervisor.available(i)
                    and ws.inflight is None
                    and ws.down_until is None
                ]
                ready = [j for j in queue.items if j.worker_id is None]
                if not idle or not ready:
                    return
                job = ready[0]
                if (
                    self.deadline_s is not None
                    and t - job.request.arrival > self.deadline_s
                ):
                    queue.remove(job)
                    finish_job(job, "deadline_exceeded", t)
                    continue
                idle_set = set(idle)
                loads: list[float | None] = [
                    workers[i].busy_seconds if i in idle_set else None
                    for i in range(self.n_workers)
                ]
                tokens = (
                    self._route_tokens(job.request)
                    if router.policy == "prefix_affinity"
                    else None
                )
                wid = router.route(job.request, loads, tokens=tokens)
                if wid is None:
                    return
                self._dispatch_to(workers[wid], wid, job, t, registry)

        # -------------------------------------------------------- main loop
        router.update_rung(supervisor.n_available(), supervisor.n_live(), now)
        admit(0.0)
        dispatch(0.0)
        while queue.items or idx < len(pending):
            if supervisor.n_live() == 0:
                # Terminal fleet rung: nobody is coming back.  Shed what
                # is queued, reject what has not arrived.
                router.update_rung(0, 0, now)
                for job in list(queue.items):
                    queue.remove(job)
                    finish_job(job, "shed", now)
                    registry.inc("fleet_shed_rung_sheds")
                while idx < len(pending):
                    r = pending[idx]
                    idx += 1
                    tm = registry.new_request(
                        r.request_id, r.arrival, r.prompt_len
                    )
                    tm.outcome = "rejected"
                    registry.inc("rejected")
                    registry.inc("fleet_shed_rung_rejections")
                break
            cand = [hb_next]
            if idx < len(pending):
                cand.append(pending[idx].arrival)
            for ws in workers:
                if ws.inflight is not None:
                    cand.append(ws.inflight.finish)
                if ws.down_until is not None:
                    cand.append(ws.down_until)
            for z in zombies:
                cand.append(z.finish)
            now = max(now, min(cand))
            for wid, ws in enumerate(workers):
                if ws.down_until is not None and ws.down_until <= now:
                    ws.down_until = None
                    ws.worker.restart()
                    supervisor.restarted(wid, now)
                    registry.inc("fleet_worker_restarts")
            for wid, ws in enumerate(workers):
                if ws.inflight is not None and ws.inflight.finish <= now:
                    on_worker_event(wid)
            for z in [z for z in zombies if z.finish <= now]:
                zombies.remove(z)
                registry.inc("fleet_stale_completions_fenced")
            while hb_next <= now:
                sweep(hb_next)
                hb_next += supervisor.heartbeat_interval_s
            if self.deadline_s is not None:
                expired = [
                    j
                    for j in queue.items
                    if j.worker_id is None
                    and now - j.request.arrival > self.deadline_s
                ]
                for job in expired:
                    queue.remove(job)
                    finish_job(job, "deadline_exceeded", now)
            router.update_rung(
                supervisor.n_available(), supervisor.n_live(), now
            )
            admit(now)
            dispatch(now)

        # Zombies outliving the workload still fence deterministically.
        for _ in zombies:
            registry.inc("fleet_stale_completions_fenced")

        worker_views = [
            {
                "worker_id": wid,
                "executions": ws.executions,
                "delivered": ws.delivered,
                "busy_seconds": ws.busy_seconds,
                "counters": ws.registry.to_dict()["counters"],
            }
            for wid, ws in enumerate(workers)
        ]
        return FleetResult(
            telemetry=registry,
            method=self.method,
            workers=worker_views,
            fleet={
                "n_workers": self.n_workers,
                "supervisor": supervisor.stats(),
                "router": router.stats(),
            },
        )

    def _dispatch_to(
        self,
        ws: _WorkerState,
        wid: int,
        job: _FleetJob,
        t: float,
        registry: MetricsRegistry,
    ) -> None:
        """Hand one job to one worker, eagerly executing its quantum."""
        inj = self.fault_injector
        job.dispatches += 1
        job.worker_id = wid
        if job.started is None:
            job.started = t
        job.telemetry.outcome = "running"
        remaining = None
        if self.deadline_s is not None:
            remaining = self.deadline_s - (t - job.request.arrival)
        wreq = Request(
            request_id=job.request.request_id,
            arrival=0.0,
            prompt_len=job.request.prompt_len,
            decode_tokens=job.request.decode_tokens,
        )
        seq = ws.exec_seq
        ws.exec_seq += 1
        ws.executions += 1
        crash_frac = inj.worker_crash(wid, seq) if inj is not None else None
        status, payload, duration = ws.worker.execute(
            wreq, remaining, crash_frac
        )
        stall = inj.worker_stall(wid, seq) if inj is not None else 1.0
        stalled = stall > 1.0
        if stalled:
            registry.inc("fault_worker_stall")
        ws.inflight = _Inflight(
            job=job,
            epoch=job.epoch,
            start=t,
            finish=t + duration * stall,
            payload=payload,
            crashed=status == "crashed",
            stalled=stalled,
        )
