"""Deterministic, seeded fault injection for the serving engine.

The paper's near-lossless claim is a *runtime* property: CRA >= alpha must
hold for the plans actually executed, including the stale
:meth:`~repro.core.plan.SparsePlan.extended` reuses the plan cache hands
out.  This module supplies the adversary that lets us test the property
instead of assuming it -- a :class:`FaultInjector` that decides, from a
seed and nothing else, where to hurt a run:

* **transient attend failures** -- a prefill chunk raises
  :class:`~repro.errors.FaultInjectionError` partway through its layers
  (exercising KV-cache rollback plus the engine's bounded retry with
  exponential backoff and jitter);
* **plan-cache corruption / staleness poisoning** -- cached
  :class:`~repro.core.plan.SparsePlan` entries are replaced with
  adversarially corrupted variants (out-of-range stripes, non-monotone
  indices, zero windows, NaN accounting, under-alpha coverage reports);
* **chunk-latency spikes and stragglers** -- the virtual-clock bill of a
  chunk is multiplied by a spike factor, per chunk or persistently per
  request (exercising per-request deadlines);
* **admission bursts** -- :func:`inject_admission_burst` splices a
  synchronized arrival spike into a workload (exercising bounded admission
  and shedding);
* **arena-exhaustion bursts** -- a fraction of the paged KV arena's free
  blocks is reserved for the duration of a chunk (exercising the memory
  pressure ladder: registry shrink, live eviction, and memory-shed);
* **slow chunks** -- a chunk's entire virtual-clock quantum (including
  retries and backoff, unlike a latency spike) is multiplied by an
  injected factor (exercising deadline/retry paths under slowness rather
  than errors);
* **fleet faults** -- worker crashes partway through an execution
  (exercising supervised restart, ledger drain, and epoch-fenced
  re-dispatch), worker stalls (a whole execution slowed while its
  heartbeats stop), and heartbeat-loss episodes on live workers
  (exercising false-positive death declarations and zombie-completion
  fencing).  These are keyed by ``(worker, execution)`` rather than
  ``(request, chunk)`` -- the fleet layer consults them, the inner
  engines never see them.

Every decision comes from a *keyed* RNG -- ``default_rng((seed, kind,
request, chunk, ...))`` -- so two runs with the same seed inject the same
faults regardless of scheduling interleave, and the chaos experiments can
assert bitwise-identical telemetry across repeats.

:func:`chaos_scenario` is *the* adversarial scenario -- workload, burst,
injector, engine and front-door configuration -- that every drill, example
and parity test serves; each of them derives its variant from it
(:meth:`FaultInjector.replace`) instead of re-typing it.

:func:`check_recovery_invariants` states what "survived" means: every
admitted request reaches a terminal state, and no request completes with a
runtime CRA violation that was not answered by a recorded dense fallback.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..core.plan import SparsePlan
from ..errors import ConfigError
from .simulator import Request, poisson_workload
from .telemetry import TERMINAL_OUTCOMES

__all__ = [
    "FAULT_KINDS",
    "CORRUPTION_MODES",
    "STRUCTURAL_CORRUPTIONS",
    "SEMANTIC_CORRUPTIONS",
    "corrupt_plan",
    "FaultInjector",
    "inject_admission_burst",
    "ChaosScenario",
    "chaos_scenario",
    "TERMINAL_OUTCOMES",
    "check_recovery_invariants",
]

FAULT_KINDS = (
    "attend_transient",
    "plan_poison",
    "latency_spike",
    "straggler",
    "admission_burst",
    # Appended last so the earlier kinds keep their stable ids; the
    # retry-jitter stream (keyed at len(FAULT_KINDS)) shifts with it and
    # stays collision-free.
    "arena_exhaustion",
    "slow_chunk",
    "worker_crash",
    "worker_stall",
    "heartbeat_loss",
)

# Structural corruptions are caught by SparsePlan.validate(); semantic ones
# produce plans that are executable but lie about their coverage, which only
# the engine's runtime CRA guard can catch.
STRUCTURAL_CORRUPTIONS = (
    "window_zero",
    "window_overflow",
    "stripe_negative",
    "stripe_out_of_range",
    "stripe_nonmonotone",
    "stripe_empty",
    "ratio_nan",
    "share_nan",
)
SEMANTIC_CORRUPTIONS = ("share_undercut",)
CORRUPTION_MODES = STRUCTURAL_CORRUPTIONS + SEMANTIC_CORRUPTIONS

# Stable integer ids so keyed RNG streams never depend on string hashing.
_KIND_IDS = {kind: i for i, kind in enumerate(FAULT_KINDS)}
_RETRY_STREAM = len(FAULT_KINDS)


def _rng(*key: int) -> np.random.Generator:
    """Keyed RNG: the same key yields the same stream in any call order."""
    return np.random.default_rng([int(k) & 0x7FFFFFFF for k in key])


# ---------------------------------------------------------------- corruption
def corrupt_plan(
    plan: SparsePlan, mode: str, rng: np.random.Generator
) -> SparsePlan:
    """Return an adversarially corrupted copy of ``plan``.

    ``mode`` is one of :data:`CORRUPTION_MODES`.  Structural modes produce
    plans that :meth:`~repro.core.plan.SparsePlan.validate` must reject;
    ``"share_undercut"`` produces a structurally valid plan whose
    ``achieved_share`` reports coverage below any usable alpha, which the
    serving engine's CRA guard must catch at execution time.
    """
    if mode not in CORRUPTION_MODES:
        raise ConfigError(
            f"unknown corruption mode {mode!r}; expected one of "
            f"{CORRUPTION_MODES}"
        )
    h = plan.n_heads
    if mode == "window_zero":
        return dataclasses.replace(plan, window=0)
    if mode == "window_overflow":
        return dataclasses.replace(
            plan, window=plan.s_k + 1 + int(rng.integers(0, 64))
        )
    if mode == "stripe_negative":
        bad = [
            np.concatenate(([np.int64(-1 - int(rng.integers(0, 8)))], ix))
            for ix in plan.kv_indices
        ]
        return dataclasses.replace(plan, kv_indices=bad)
    if mode == "stripe_out_of_range":
        bad = [
            np.concatenate(
                (ix, [np.int64(plan.s_k + int(rng.integers(0, 1024)))])
            )
            for ix in plan.kv_indices
        ]
        return dataclasses.replace(plan, kv_indices=bad)
    if mode == "stripe_nonmonotone":
        bad = []
        for ix in plan.kv_indices:
            arr = np.array(ix, copy=True)
            if arr.size >= 2:
                i = int(rng.integers(0, arr.size - 1))
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                if arr[i] == arr[i + 1]:  # equal neighbours: duplicate one
                    arr[i + 1] = arr[i]
            else:
                arr = np.concatenate((arr, arr))  # duplicate = non-monotone
            bad.append(arr)
        return dataclasses.replace(plan, kv_indices=bad)
    if mode == "stripe_empty":
        return dataclasses.replace(plan, kv_indices=[])
    if mode == "ratio_nan":
        ratio = np.array(plan.kv_ratio, copy=True)
        ratio[int(rng.integers(0, max(h, 1))) % max(ratio.size, 1)] = np.nan
        return dataclasses.replace(plan, kv_ratio=ratio)
    if mode == "share_nan":
        share = np.array(plan.achieved_share, dtype=np.float64, copy=True)
        share[int(rng.integers(0, max(share.size, 1)))] = np.inf
        return dataclasses.replace(plan, achieved_share=share)
    # share_undercut: structurally valid, semantically poisoned.
    share = np.full(h, float(rng.uniform(0.0, 0.5)), dtype=np.float64)
    return dataclasses.replace(plan, achieved_share=share)


# ------------------------------------------------------------------ injector
class FaultInjector:
    """Seeded adversary the serving engine consults at its hook points.

    Every query is answered from a keyed RNG over ``(seed, fault kind,
    request, chunk, ...)``, so decisions are reproducible and independent of
    the order the engine asks in.  The injector is stateless apart from its
    configuration; counting what actually *fired* is the engine's job (the
    telemetry registry), so that two runs can be compared counter for
    counter.

    Parameters
    ----------
    seed:
        Root of every keyed RNG stream.
    p_attend_fault:
        Per-(request, chunk) probability that the chunk raises a transient
        :class:`~repro.errors.FaultInjectionError` partway through its
        layers.
    max_transient_failures:
        A firing attend fault fails attempts ``0 .. k-1`` with ``k`` drawn
        uniformly from ``[1, max_transient_failures]``; a retry budget of at
        least ``max_transient_failures`` therefore always recovers.
    p_plan_poison:
        Per-(request, chunk) probability that the request's cached sparse
        plans are corrupted before the chunk runs (mode drawn uniformly
        from :data:`CORRUPTION_MODES`).
    p_latency_spike, spike_multiplier:
        Per-(request, chunk) probability and factor of a one-off virtual
        clock latency spike.
    p_straggler, straggler_multiplier:
        Per-request probability (decided once per request id) of a
        persistent slow-down applied to every chunk of that request.
    p_arena_exhaustion, exhaustion_fraction:
        Per-(request, chunk) probability that an arena-exhaustion burst
        fires for the chunk, and the fraction of the arena's *free* blocks
        reserved for its duration.  Only meaningful on the paged KV
        backend; the engine releases the reservation when the chunk's
        quantum ends, successful or not.
    p_slow_chunk, slow_chunk_multiplier:
        Per-(request, chunk) probability that the chunk's *whole* quantum
        (retries and backoff included, unlike a latency spike) is slowed,
        and the upper bound of the slow factor: a firing slow chunk draws
        its factor uniformly from ``(1, slow_chunk_multiplier]``.
    p_worker_crash:
        Per-(worker, execution) probability that the worker process dies
        partway through the execution; the crash point is a fraction of
        the execution's duration drawn uniformly from ``[0.05, 0.95]``.
    p_worker_stall, worker_stall_multiplier:
        Per-(worker, execution) probability that the execution stalls:
        its duration is multiplied and the worker's heartbeats stop for
        the stretched duration (the supervisor sees silence, not an
        error).
    p_heartbeat_loss, heartbeat_loss_run:
        Per-(worker, beat) probability that a heartbeat-loss episode
        *starts* at that beat; an episode suppresses
        ``heartbeat_loss_run`` consecutive beats of an otherwise healthy
        worker (driving the supervisor's false-positive path).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        p_attend_fault: float = 0.0,
        max_transient_failures: int = 1,
        p_plan_poison: float = 0.0,
        p_latency_spike: float = 0.0,
        spike_multiplier: float = 8.0,
        p_straggler: float = 0.0,
        straggler_multiplier: float = 4.0,
        p_arena_exhaustion: float = 0.0,
        exhaustion_fraction: float = 0.75,
        p_slow_chunk: float = 0.0,
        slow_chunk_multiplier: float = 4.0,
        p_worker_crash: float = 0.0,
        p_worker_stall: float = 0.0,
        worker_stall_multiplier: float = 8.0,
        p_heartbeat_loss: float = 0.0,
        heartbeat_loss_run: int = 3,
    ) -> None:
        for name, p in (
            ("p_attend_fault", p_attend_fault),
            ("p_plan_poison", p_plan_poison),
            ("p_latency_spike", p_latency_spike),
            ("p_straggler", p_straggler),
            ("p_arena_exhaustion", p_arena_exhaustion),
            ("exhaustion_fraction", exhaustion_fraction),
            ("p_slow_chunk", p_slow_chunk),
            ("p_worker_crash", p_worker_crash),
            ("p_worker_stall", p_worker_stall),
            ("p_heartbeat_loss", p_heartbeat_loss),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p!r}")
        if max_transient_failures < 1:
            raise ConfigError(
                f"max_transient_failures must be >= 1, got "
                f"{max_transient_failures!r}"
            )
        if (
            spike_multiplier < 1.0
            or straggler_multiplier < 1.0
            or slow_chunk_multiplier < 1.0
            or worker_stall_multiplier < 1.0
        ):
            raise ConfigError("latency multipliers must be >= 1")
        if heartbeat_loss_run < 1:
            raise ConfigError(
                f"heartbeat_loss_run must be >= 1, got {heartbeat_loss_run!r}"
            )
        self.seed = int(seed)
        self.p_attend_fault = p_attend_fault
        self.max_transient_failures = max_transient_failures
        self.p_plan_poison = p_plan_poison
        self.p_latency_spike = p_latency_spike
        self.spike_multiplier = spike_multiplier
        self.p_straggler = p_straggler
        self.straggler_multiplier = straggler_multiplier
        self.p_arena_exhaustion = p_arena_exhaustion
        self.exhaustion_fraction = exhaustion_fraction
        self.p_slow_chunk = p_slow_chunk
        self.slow_chunk_multiplier = slow_chunk_multiplier
        self.p_worker_crash = p_worker_crash
        self.p_worker_stall = p_worker_stall
        self.worker_stall_multiplier = worker_stall_multiplier
        self.p_heartbeat_loss = p_heartbeat_loss
        self.heartbeat_loss_run = int(heartbeat_loss_run)

    # ----------------------------------------------------------- decisions
    def attend_failures(self, request_id: int, chunk_index: int) -> int:
        """Number of leading attempts of this chunk that must fail (0 =
        no fault)."""
        rng = _rng(self.seed, _KIND_IDS["attend_transient"], request_id,
                   chunk_index)
        if rng.uniform() >= self.p_attend_fault:
            return 0
        return 1 + int(rng.integers(0, self.max_transient_failures))

    def fail_layer(
        self, request_id: int, chunk_index: int, attempt: int, n_layers: int
    ) -> int:
        """Layer at which a firing attend fault raises (partial KV writes
        up to this layer are what chunk rollback must undo)."""
        rng = _rng(self.seed, _KIND_IDS["attend_transient"], request_id,
                   chunk_index, attempt + 1)
        return int(rng.integers(0, max(n_layers, 1)))

    def poison_mode(self, request_id: int, chunk_index: int) -> str | None:
        """Corruption mode to poison this request's cached plans with
        before the chunk, or ``None``."""
        rng = _rng(self.seed, _KIND_IDS["plan_poison"], request_id,
                   chunk_index)
        if rng.uniform() >= self.p_plan_poison:
            return None
        return str(rng.choice(CORRUPTION_MODES))

    def corruption_rng(
        self, request_id: int, chunk_index: int, layer: int
    ) -> np.random.Generator:
        """RNG for materialising one layer's corruption deterministically."""
        return _rng(self.seed, _KIND_IDS["plan_poison"], request_id,
                    chunk_index, layer + 1)

    def spike_fired(self, request_id: int, chunk_index: int) -> bool:
        """Whether a one-off latency spike hits this chunk (same keyed
        stream :meth:`latency_multiplier` consults, so the answer agrees
        with the factor actually applied)."""
        rng = _rng(self.seed, _KIND_IDS["latency_spike"], request_id,
                   chunk_index)
        return bool(rng.uniform() < self.p_latency_spike)

    def is_straggler(self, request_id: int) -> bool:
        rng = _rng(self.seed, _KIND_IDS["straggler"], request_id)
        return bool(rng.uniform() < self.p_straggler)

    def latency_multiplier(self, request_id: int, chunk_index: int) -> float:
        """Combined spike x straggler factor for one chunk's bill."""
        mult = 1.0
        rng = _rng(self.seed, _KIND_IDS["latency_spike"], request_id,
                   chunk_index)
        if rng.uniform() < self.p_latency_spike:
            mult *= self.spike_multiplier
        if self.is_straggler(request_id):
            mult *= self.straggler_multiplier
        return mult

    def arena_burst(self, request_id: int, chunk_index: int) -> float:
        """Fraction of the arena's free blocks to reserve for this chunk
        (0.0 = no burst).  The engine takes the reservation before the
        chunk's first attempt and releases it when the quantum ends."""
        rng = _rng(self.seed, _KIND_IDS["arena_exhaustion"], request_id,
                   chunk_index)
        if rng.uniform() >= self.p_arena_exhaustion:
            return 0.0
        return self.exhaustion_fraction

    def slow_factor(self, request_id: int, chunk_index: int) -> float:
        """Slow-chunk factor for one chunk's *entire* quantum (1.0 = no
        fault).  Unlike :meth:`latency_multiplier` -- which scales only
        the successful attempt's bill -- this factor stretches everything
        the quantum spent: failed attempts, backoff, the lot.  Deadlines
        and retries see pervasive slowness, not a spike."""
        rng = _rng(self.seed, _KIND_IDS["slow_chunk"], request_id,
                   chunk_index)
        if rng.uniform() >= self.p_slow_chunk:
            return 1.0
        return 1.0 + (self.slow_chunk_multiplier - 1.0) * float(rng.uniform())

    # ------------------------------------------------------- fleet decisions
    def worker_crash(self, worker_id: int, exec_seq: int) -> float | None:
        """Whether worker ``worker_id``'s ``exec_seq``-th execution
        crashes the process, and where: ``None`` for no crash, else the
        fraction of the execution's duration that elapses before death
        (the request dies mid-flight, never at a clean boundary)."""
        rng = _rng(self.seed, _KIND_IDS["worker_crash"], worker_id, exec_seq)
        if rng.uniform() >= self.p_worker_crash:
            return None
        return 0.05 + 0.9 * float(rng.uniform())

    def worker_stall(self, worker_id: int, exec_seq: int) -> float:
        """Stall factor for one worker execution (1.0 = no stall).  A
        stalled execution takes ``factor``x its virtual duration *and*
        stops heartbeating for the stretch -- the supervisor must tell
        slow from dead."""
        rng = _rng(self.seed, _KIND_IDS["worker_stall"], worker_id, exec_seq)
        if rng.uniform() >= self.p_worker_stall:
            return 1.0
        return self.worker_stall_multiplier

    def heartbeat_lost(self, worker_id: int, beat: int) -> bool:
        """Whether worker ``worker_id``'s ``beat``-th heartbeat is lost.

        A loss *episode* starting at beat ``s`` suppresses beats
        ``s .. s + heartbeat_loss_run - 1``; this checks every episode
        that could cover ``beat``, so the answer is independent of query
        order."""
        if self.p_heartbeat_loss <= 0.0:
            return False
        first = max(0, beat - self.heartbeat_loss_run + 1)
        for start in range(first, beat + 1):
            rng = _rng(self.seed, _KIND_IDS["heartbeat_loss"], worker_id,
                       start)
            if rng.uniform() < self.p_heartbeat_loss:
                return True
        return False

    def backoff_jitter(
        self, request_id: int, chunk_index: int, attempt: int
    ) -> float:
        """Deterministic jitter factor in ``[1, 1.5)`` for one retry's
        exponential backoff."""
        rng = _rng(self.seed, _RETRY_STREAM, request_id, chunk_index, attempt)
        return 1.0 + 0.5 * float(rng.uniform())

    def as_dict(self) -> dict:
        """Configuration record for experiment tables and telemetry."""
        return {
            "seed": self.seed,
            "p_attend_fault": self.p_attend_fault,
            "max_transient_failures": self.max_transient_failures,
            "p_plan_poison": self.p_plan_poison,
            "p_latency_spike": self.p_latency_spike,
            "spike_multiplier": self.spike_multiplier,
            "p_straggler": self.p_straggler,
            "straggler_multiplier": self.straggler_multiplier,
            "p_arena_exhaustion": self.p_arena_exhaustion,
            "exhaustion_fraction": self.exhaustion_fraction,
            "p_slow_chunk": self.p_slow_chunk,
            "slow_chunk_multiplier": self.slow_chunk_multiplier,
            "p_worker_crash": self.p_worker_crash,
            "p_worker_stall": self.p_worker_stall,
            "worker_stall_multiplier": self.worker_stall_multiplier,
            "p_heartbeat_loss": self.p_heartbeat_loss,
            "heartbeat_loss_run": self.heartbeat_loss_run,
        }

    def replace(self, **changes) -> "FaultInjector":
        """A copy of this adversary with some :meth:`as_dict` fields
        changed -- how a drill states its variant of
        :func:`chaos_scenario` as a diff."""
        return type(self)(**{**self.as_dict(), **changes})


# -------------------------------------------------------------------- bursts
def inject_admission_burst(
    requests: list[Request],
    *,
    seed: int,
    at: float,
    n: int,
    prompt_len: int = 16384,
    decode_tokens: int = 2,
) -> list[Request]:
    """Splice ``n`` near-simultaneous arrivals into a workload at time
    ``at`` (fresh request ids above the existing maximum, arrivals jittered
    by a seeded few milliseconds so ordering is well-defined)."""
    if n < 1:
        raise ConfigError(f"burst size must be >= 1, got {n}")
    if at < 0:
        raise ConfigError(f"burst time must be >= 0, got {at}")
    rng = _rng(seed, _KIND_IDS["admission_burst"], n)
    base_id = max((r.request_id for r in requests), default=-1) + 1
    burst = [
        Request(
            request_id=base_id + i,
            arrival=at + float(rng.uniform(0.0, 1e-3)),
            prompt_len=prompt_len,
            decode_tokens=decode_tokens,
        )
        for i in range(n)
    ]
    return sorted(requests + burst, key=lambda r: (r.arrival, r.request_id))


# ------------------------------------------------------------------ scenario
@dataclass(frozen=True)
class ChaosScenario:
    """One adversarial serving scenario: workload, adversary, configuration.

    Who arrives, what attacks them, and how the engine and its front door
    are set up to survive it.  ``engine_kwargs`` are the
    :class:`~repro.serving.engine.ServingEngine` arguments a fleet
    forwards to its workers; ``max_queue`` / ``admission_policy`` /
    ``deadline_s`` and the injector belong to the front door (the
    engine's own, or the fleet's).
    """

    requests: tuple[Request, ...]
    injector: FaultInjector
    engine_kwargs: dict
    max_queue: int = 6
    admission_policy: str = "shed_oldest"
    deadline_s: float = 4.0

    def serving_kwargs(self) -> dict:
        """Everything but the model, as keyword arguments both
        ``ServingEngine`` and ``FleetEngine`` accept."""
        return dict(
            self.engine_kwargs,
            max_queue=self.max_queue,
            admission_policy=self.admission_policy,
            deadline_s=self.deadline_s,
            fault_injector=self.injector,
        )


def chaos_scenario(seed: int = 0, *, quick: bool = True) -> ChaosScenario:
    """The PR-2 adversary, defined once.

    A Poisson stream of 8K/16K prompts with a synchronized 16K admission
    burst at t = 0.25 s, under transient attend faults (retry budget 2
    always recovers), plan poisoning, latency spikes, stragglers and slow
    chunks, against a sparse engine on the deterministic roofline clock
    with a six-deep shed-oldest front door and a 4 s deadline.  ``quick``
    serves 2 s of arrivals at 1/32 length scale; otherwise 8 s at 1/16.
    """
    requests = poisson_workload(
        np.random.default_rng(seed),
        rate_per_s=3.0 if quick else 2.0,
        duration_s=2.0 if quick else 8.0,
        prompt_lens=(8192, 16384),
        decode_tokens=2,
    )
    requests = inject_admission_burst(
        requests,
        seed=seed,
        at=0.25,
        n=3 if quick else 6,
        prompt_len=16384,
        decode_tokens=1,
    )
    injector = FaultInjector(
        seed,
        p_attend_fault=0.3,
        max_transient_failures=2,
        p_plan_poison=0.35,
        p_latency_spike=0.2,
        spike_multiplier=6.0,
        p_straggler=0.25,
        straggler_multiplier=3.0,
        p_slow_chunk=0.15,
        slow_chunk_multiplier=4.0,
    )
    engine_kwargs = dict(
        method="sample",
        chunk_size=96 if quick else 256,
        length_scale=32 if quick else 16,
        billing="roofline",
        max_retries=2,
        degrade_after=2,
        breaker_threshold=3,
        breaker_cooldown_chunks=4,
        seed=seed,
    )
    return ChaosScenario(tuple(requests), injector, engine_kwargs)


# ---------------------------------------------------------------- invariants
def check_recovery_invariants(result) -> list[str]:
    """Audit one :class:`~repro.serving.engine.EngineResult` for the
    recovery guarantees the chaos drills assert.  Returns a list of breach
    descriptions (empty = the run survived):

    1. every request is in a terminal state (no wedged requests);
    2. every runtime CRA-guard violation on a completed request was
       answered by a recorded dense fallback (``cra_violations <=
       plan_fallbacks`` per request) -- i.e. no request completed on a
       sub-alpha plan;
    3. every degradation transition lands on a declared ladder level, in
       strictly escalating order.
    """
    from .engine import DEGRADATION_LEVELS  # local import: no cycle at load

    breaches: list[str] = []
    order = {level: i for i, level in enumerate(DEGRADATION_LEVELS)}
    for tm in result.requests:
        rid = tm.request_id
        if tm.outcome not in TERMINAL_OUTCOMES:
            breaches.append(
                f"request {rid} not terminal: outcome={tm.outcome!r}"
            )
        if tm.outcome == "completed" and tm.cra_violations > tm.plan_fallbacks:
            breaches.append(
                f"request {rid} completed with {tm.cra_violations} CRA "
                f"violations but only {tm.plan_fallbacks} dense fallbacks"
            )
        last = -1
        for tr in tm.transitions:
            if tr["to"] not in order:
                breaches.append(
                    f"request {rid} transitioned to unknown level "
                    f"{tr['to']!r}"
                )
                continue
            if order[tr["to"]] <= last:
                breaches.append(
                    f"request {rid} ladder not monotone: {tm.transitions}"
                )
                break
            last = order[tr["to"]]
    return breaches
