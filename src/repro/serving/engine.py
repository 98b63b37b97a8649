"""Executable serving engine: continuous batching over the numpy pipeline.

Where :class:`~repro.serving.simulator.ServingSimulator` *bills* roofline
costs, this engine *runs* the code: every prefill chunk goes through
:meth:`~repro.model.transformer.Transformer.prefill_chunk` on a real
:mod:`repro.model` preset, SampleAttention chunks plan via the configured
:class:`~repro.core.providers.PlanProvider` -- ``config.provider`` selects
the two-stage SampleAttention planner or one of the related-work pattern
planners (amortised through a
:class:`~repro.serving.plan_cache.PlanCache`) and execute through **one**
sparse executor, :func:`~repro.attention.packed.packed_block_sparse_attention`
(gathered stripe columns plus the window band under one softmax; a
per-request chunk is a packed batch of one), and decode runs greedy
:meth:`~repro.model.transformer.Transformer.decode_step` over the populated
KV caches.  The serving mechanics are the ones a production engine needs:

* **admission control and backpressure** -- a bounded
  :class:`~repro.serving.scheduler.AdmissionQueue` rejects or sheds under
  overload instead of growing without bound;
* **continuous batching** -- new arrivals join the running queue between
  chunks, scheduled FCFS or round-robin by the same
  :class:`~repro.serving.scheduler.ChunkScheduler` the simulator uses;
* **sparse-plan caching** -- stage-1/stage-2 planning reruns only every
  ``replan_interval`` chunks per (request, layer) head group, with
  staleness-bounded reuse in between -- except that a request's final
  prefill chunk, whose rows produce the first token, always plans from
  itself;
* **graceful degradation** -- a per-request ladder *adaptive sparse ->
  widened sparse -> dense -> shed*: a plan that fails validation, reports
  CRA coverage below alpha (the runtime CRA guard), or whose kernel raises
  falls back to dense attention for that call, and a request that keeps
  tripping the guard is escalated down the ladder, every transition
  recorded in telemetry rather than failing the request;
* **fault tolerance** -- per-request deadlines on the virtual clock,
  bounded chunk retry with exponential backoff + jitter (KV caches are
  rolled back before each retry), and an engine-wide
  :class:`CircuitBreaker` that routes planning to validated dense fallback
  after repeated CRA-guard violations.  A
  :class:`~repro.serving.faults.FaultInjector` can be attached to exercise
  all of it deterministically.

Time is a virtual clock: arrivals stamp it forward, and each executed
chunk advances it either by measured wall-clock (``billing="measured"``,
the executed-TTFT numbers the serve experiment reports) or by a
deterministic roofline conversion of the exact score-element counts the
kernels report (``billing="roofline"``, reproducible across runs and
machines -- the mode the seeded tests use).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..attention.flash import flash_attention
from ..attention.packed import (
    PackedDecodeItem,
    PackedItem,
    packed_block_sparse_attention,
    packed_decode_attention,
)
from ..attention.utils import KernelWorkspace, total_causal_elements
from ..audit import contracts
from ..config import DEFAULT_CONFIG, SampleAttentionConfig
from ..core.profiler import StageProfiler
from ..core.providers import make_provider
from ..errors import (
    ArenaExhaustedError,
    ConfigError,
    FaultInjectionError,
    ReproError,
)
from ..memory import (
    BatchedKVGather,
    HeavyHitterPolicy,
    KVArena,
    MemoryPressureController,
    PagedLayerKVCache,
    PrefixSharingRegistry,
)
from ..model.kv_cache import LayerKVCache
from ..model.transformer import Transformer
from ..perf.hardware import A100_80GB
from ..perf.latency import executed_elements_seconds
from ..tasks.needle import make_needle_case
from .faults import FaultInjector, corrupt_plan
from .plan_cache import PlanCache
from .scheduler import ADMISSION_POLICIES, AdmissionQueue, ChunkScheduler
from .simulator import Request
from .telemetry import MetricsRegistry, RequestTelemetry

__all__ = [
    "EngineResult",
    "ServingEngine",
    "executed_prompt",
    "CircuitBreaker",
    "BATCHING_MODES",
    "DEGRADATION_LEVELS",
    "KV_BACKENDS",
]

#: Prefill methods: ``"sample"`` plans and executes sparsely; ``"flash"`` is
#: dense causal attention -- an all-rows-dense item on the same packed kernel.
ENGINE_METHODS = ("sample", "flash")
BILLING_MODES = ("measured", "roofline")

#: Batch-step execution modes: ``"request"`` runs one job's quantum per
#: scheduling turn (a packed dispatch of one item per layer); ``"packed"``
#: co-schedules up to ``max_batch_requests`` jobs per turn and executes
#: their sparse prefill attention as **one**
#: :func:`~repro.attention.packed.packed_block_sparse_attention` dispatch
#: per (layer, batch step), with per-request plans, telemetry, degradation
#: and fault isolation preserved.  Both modes share one attention router,
#: so they differ in co-scheduling only, never in kernel or arithmetic.
BATCHING_MODES = ("request", "packed")

#: KV storage backends: ``"contiguous"`` gives each request private dense
#: arrays (:class:`~repro.model.kv_cache.LayerKVCache`); ``"paged"`` pools
#: all KV in one :class:`~repro.memory.KVArena` with per-request block
#: tables, prefix sharing, and the memory-pressure ladder.
KV_BACKENDS = ("contiguous", "paged")

#: The graceful-degradation ladder, most capable first.  ``"widened"``
#: replans with a doubled local window, doubled stage-1 sampling, and a
#: raised stripe floor (cheap insurance stripes); ``"dense"`` abandons
#: sparse planning for the request; ``"shed"`` is the terminal rung for a
#: request the engine gives up on (retry budget exhausted).
DEGRADATION_LEVELS = ("sparse", "widened", "dense", "shed")

_MIN_EXECUTED_LEN = 64
_CRA_EPS = 1e-6  # float tolerance for the runtime achieved-share guard
_SPARSE_LEVELS = ("sparse", "widened")
#: Decode quantum per scheduling turn under round-robin (FCFS decodes a
#: request's remaining tokens in one turn).
_DECODE_CHUNK_TOKENS = 8
#: Memory :class:`CircuitBreaker`: this many consecutive arena-exhaustion
#: chunks trip it open, and while open (for the cooldown) new admissions
#: are rejected outright -- backpressure at the door instead of thrashing
#: the eviction ladder.
_MEMORY_BREAKER_THRESHOLD = 4
_MEMORY_BREAKER_COOLDOWN_CHUNKS = 8


class CircuitBreaker:
    """Engine-wide breaker over sparse planning.

    Repeated runtime CRA-guard violations (``threshold`` consecutive, over
    any mix of requests) trip the breaker **open**: every sparse attention
    call degrades to validated dense fallback for ``cooldown_chunks``
    executed chunks.  The breaker then goes **half-open** -- sparse
    planning is allowed again, one success closes it, one violation trips
    it straight back open.  This is the stop-loss between "one poisoned
    plan" and "every request pays planning cost for plans the guard will
    reject anyway".

    Half-open admits exactly **one** in-flight probe: the first
    :meth:`allow_sparse` arms it, and until that probe resolves (success,
    violation, or the next :meth:`tick` reclaiming an abandoned probe)
    every other caller is refused.  Without the cap a burst of concurrent
    probes could close the breaker on a single success while sibling
    probes are still failing -- the classic half-open thundering herd.
    """

    def __init__(self, threshold: int = 4, cooldown_chunks: int = 8) -> None:
        if threshold < 1:
            raise ConfigError(f"threshold must be >= 1, got {threshold}")
        if cooldown_chunks < 1:
            raise ConfigError(
                f"cooldown_chunks must be >= 1, got {cooldown_chunks}"
            )
        self.threshold = threshold
        self.cooldown_chunks = cooldown_chunks
        self.state = "closed"
        self.trips = 0
        self._consecutive = 0
        self._cooldown_left = 0
        self._probing = False

    def allow_sparse(self) -> bool:
        if self.state == "open":
            return False
        if self.state == "half_open":
            if self._probing:
                return False
            self._probing = True
        return True

    def record_violation(self) -> bool:
        """One CRA-guard violation; returns ``True`` when this trips the
        breaker open."""
        self._probing = False
        self._consecutive += 1
        if self.state == "half_open" or self._consecutive >= self.threshold:
            self.state = "open"
            self._cooldown_left = self.cooldown_chunks
            self._consecutive = 0
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        self._probing = False
        self._consecutive = 0
        if self.state == "half_open":
            self.state = "closed"

    def tick(self) -> None:
        """One executed chunk elapsed (cooldown clock).  In half-open this
        also reclaims a probe whose caller never reported back (e.g. the
        probing chunk died mid-flight), so one lost probe cannot wedge the
        breaker half-open forever."""
        if self.state == "open":
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = "half_open"
        elif self.state == "half_open":
            self._probing = False


@dataclass
class _Job:
    """Mutable per-request serving state."""

    request: Request
    tokens: np.ndarray
    caches: list[LayerKVCache]
    chunks_left: list[tuple[int, int]]
    decode_left: int
    telemetry: RequestTelemetry
    chunk_index: int = 0
    next_token: int | None = None
    position: int = 0
    elements: float = 0.0  # deterministic-billing accumulator, per quantum
    generated: list[int] = field(default_factory=list)
    level: str = "sparse"  # current degradation-ladder rung
    level_violations: int = 0  # consecutive CRA-guard trips at this rung
    kv_released: bool = False  # paged backend: block refs already dropped
    #: Per-layer ``(covered_rows, max ||k||^2)`` tracked incrementally as
    #: chunks append -- the packed dispatch's stabilisation bound without
    #: an O(S_k) reduction per call.  Committed only after a chunk
    #: succeeds; reset to ``None`` when eviction rewrites the cache.
    knorm_sq: list | None = None


@dataclass
class _Attempt:
    """Routing state of one execution attempt of one job's chunk."""

    #: Layer at which to inject a transient attend failure (after earlier
    #: layers already appended KV -- the partial state retry rolls back).
    fail_at: int | None
    marks: list[int]  # per-layer cache lengths to roll back to
    elements0: float  # job.elements before the attempt (wall apportioning)
    #: Per-layer k-norm values staged by the router; folded into
    #: ``_Job.knorm_sq`` only when the chunk commits.
    knorm: list
    breaker_dense: bool = False  # breaker-forced-dense counted already
    error: Exception | None = None  # why the attempt was abandoned


def _executed_len(request: Request, length_scale: int) -> int:
    return max(request.prompt_len // length_scale, _MIN_EXECUTED_LEN)


def executed_prompt(
    request: Request, *, length_scale: int, seed: int, prompt_builder=None
) -> np.ndarray:
    """Token ids the engine executes for one workload request.

    ``prompt_builder(request, executed_len)`` when given, else a seeded
    needle prompt (realistic retrieval structure per request).  The one
    definition of request -> tokens: the engine builds jobs from it and
    the fleet hashes it for prefix-affinity routing, so the two cannot
    drift apart.
    """
    n = _executed_len(request, length_scale)
    if prompt_builder is not None:
        tokens = prompt_builder(request, n)
    else:
        rng = np.random.default_rng((seed, request.request_id))
        depth = float(rng.uniform(0.1, 0.9))
        tokens = make_needle_case(n, depth, rng=rng).prompt
    return np.asarray(tokens, dtype=np.int64)


@dataclass
class EngineResult:
    """Outcome of one :meth:`ServingEngine.run`.

    Attributes
    ----------
    telemetry:
        The :class:`~repro.serving.telemetry.MetricsRegistry` with every
        request's timeline plus engine-wide counters.
    method:
        Prefill method the engine executed (``"sample"`` or ``"flash"``).
    stages:
        :meth:`~repro.core.profiler.StageProfiler.report` snapshot of where
        chunk time went (``sample`` / ``filter`` / ``pack`` / ``attend`` /
        ``unpack`` / ``dense`` / ``decode`` wall-clock plus kernel
        counters).  Wall-clock stage
        timings live here -- not in the deterministic telemetry summary --
        so same-seed runs still compare equal under roofline billing.
    memory:
        Paged-KV subsystem snapshot (``arena`` / ``sharing`` /
        ``pressure`` stats dicts plus breaker state); empty dict on the
        contiguous backend.
    """

    telemetry: MetricsRegistry
    method: str
    stages: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)

    @property
    def requests(self) -> list[RequestTelemetry]:
        return self.telemetry.requests

    @property
    def completed(self) -> list[RequestTelemetry]:
        return self.telemetry.completed

    def summary(self) -> dict:
        return self.telemetry.summary()

    def to_dict(self) -> dict:
        """Lossless JSON form (stable key ordering); inverse of
        :meth:`from_dict`.  This is what a fleet worker reports for a
        finished execution."""
        return {
            "telemetry": self.telemetry.to_dict(),
            "method": self.method,
            "stages": self.stages,
            "memory": self.memory,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineResult":
        return cls(
            telemetry=MetricsRegistry.from_dict(data["telemetry"]),
            method=str(data["method"]),
            stages=dict(data.get("stages", {})),
            memory=dict(data.get("memory", {})),
        )


class ServingEngine:
    """Chunked-prefill serving of a request stream, executed end to end.

    Parameters
    ----------
    model:
        The transformer substrate requests run on (a
        :func:`~repro.model.build_model` preset).
    method:
        ``"sample"`` executes SampleAttention prefill through the plan
        cache; ``"flash"`` executes dense causal attention
        (:func:`~repro.attention.flash.flash_attention`).
    config:
        SampleAttention hyperparameters for ``method="sample"``.
    chunk_size:
        Prefill chunk length in *executed* tokens (scheduling granularity).
    scheduler:
        ``"fcfs"`` or ``"round_robin"`` (shared with the simulator).
    max_queue:
        Admission bound: maximum requests held (queued + running).
    admission_policy:
        ``"reject"`` or ``"shed_oldest"`` under overload; shedding only
        evicts requests that have not started prefill.
    replan_interval:
        Plan-cache policy, see :class:`~repro.serving.plan_cache.PlanCache`.
    billing:
        ``"measured"`` advances the virtual clock by wall-clock seconds per
        chunk; ``"roofline"`` converts executed score-element counts via
        :func:`~repro.perf.latency.executed_elements_seconds`
        (deterministic).
    length_scale:
        Divisor mapping workload (paper-scale) prompt lengths to executed
        substrate lengths, following DESIGN.md's ~1/16 evaluation scale;
        ``1`` executes workload lengths verbatim.
    seed:
        Seed for the default prompt builder.
    prompt_builder:
        Optional ``f(request, executed_len) -> np.ndarray`` token-id
        builder; defaults to seeded needle-in-a-haystack prompts.
    fault_injector:
        Optional :class:`~repro.serving.faults.FaultInjector`; ``None``
        (default) injects nothing and the robustness machinery is pure
        overheadless bookkeeping.
    deadline_s:
        Per-request deadline on the virtual clock, measured from arrival.
        A request whose deadline has passed is dropped (outcome
        ``"deadline_exceeded"``) *before* its next scheduling quantum; a
        quantum that finishes the request is always delivered.  ``None``
        disables deadlines.
    max_retries:
        Retry budget per prefill chunk for transient
        :class:`~repro.errors.FaultInjectionError` failures; KV caches are
        rolled back before each retry.  A chunk still failing after the
        budget sheds the request (terminal, recorded as a ladder
        transition to ``"shed"``).
    retry_backoff_s:
        Base of the exponential retry backoff billed to the virtual clock:
        attempt ``a`` waits ``retry_backoff_s * 2**a * jitter`` with
        deterministic seeded jitter in ``[1, 1.5)``.
    degrade_after:
        Consecutive runtime CRA-guard violations a request tolerates at
        one ladder rung before escalating to the next
        (:data:`DEGRADATION_LEVELS`).
    breaker_threshold, breaker_cooldown_chunks:
        Engine-wide :class:`CircuitBreaker` policy over sparse planning.
    execution, kernel_mode:
        Inert compatibility arguments: the engine has one sparse executor
        (the packed stripe-granular kernel; the tile mask is its
        accounting view), so these accept only ``None`` or the value naming it
        (``"block"`` / ``"fast"``, what the frozen ``perfbench/adapter.py``
        passes) and raise :class:`~repro.errors.ConfigError` otherwise.
        Removable by the next benchmark PR.
    batching:
        One of :data:`BATCHING_MODES`; ``"packed"`` requires
        ``method="sample"``.
    max_batch_requests:
        Packed-mode co-scheduling width (prefix of the queue per step).
    kv_backend:
        One of :data:`KV_BACKENDS`.  ``"paged"`` stores all KV in one
        :class:`~repro.memory.KVArena` (fresh per :meth:`run`), enables
        copy-on-write prefix sharing across requests, and arms the memory
        pressure ladder (registry shrink -> live heavy-hitter eviction ->
        shed) plus a memory circuit breaker over admissions.
    arena_blocks:
        Arena capacity in blocks for the paged backend.  ``None``
        auto-sizes to the run's worst-case demand (every request resident
        simultaneously, no sharing), so default runs see no pressure;
        passing a budget below that is how drills create pressure.
    block_tokens:
        Tokens per KV block (paging granularity).
    prefix_sharing:
        Enable the :class:`~repro.memory.PrefixSharingRegistry` (paged
        backend only).
    """

    def __init__(
        self,
        model: Transformer,
        *,
        method: str = "sample",
        config: SampleAttentionConfig = DEFAULT_CONFIG,
        chunk_size: int = 256,
        scheduler: str = "fcfs",
        max_queue: int = 16,
        admission_policy: str = "reject",
        replan_interval: int = 4,
        billing: str = "measured",
        length_scale: int = 1,
        seed: int = 0,
        prompt_builder=None,
        fault_injector: FaultInjector | None = None,
        deadline_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.02,
        degrade_after: int = 2,
        breaker_threshold: int = 4,
        breaker_cooldown_chunks: int = 8,
        execution: str | None = None,
        kernel_mode: str | None = None,
        batching: str = "request",
        max_batch_requests: int = 8,
        kv_backend: str = "contiguous",
        arena_blocks: int | None = None,
        block_tokens: int = 32,
        prefix_sharing: bool = True,
    ) -> None:
        if method not in ENGINE_METHODS:
            raise ConfigError(
                f"unknown method {method!r}; expected one of {ENGINE_METHODS}"
            )
        if billing not in BILLING_MODES:
            raise ConfigError(
                f"unknown billing {billing!r}; expected one of {BILLING_MODES}"
            )
        for name, value, low in (
            ("chunk_size", chunk_size, 1),
            ("length_scale", length_scale, 1),
            ("max_queue", max_queue, 1),
            ("max_retries", max_retries, 0),
            ("retry_backoff_s", retry_backoff_s, 0),
            ("degrade_after", degrade_after, 1),
            ("max_batch_requests", max_batch_requests, 1),
            ("block_tokens", block_tokens, 1),
        ):
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if arena_blocks is not None and arena_blocks < 1:
            raise ConfigError(f"arena_blocks must be >= 1, got {arena_blocks}")
        if admission_policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy {admission_policy!r}; expected "
                f"one of {ADMISSION_POLICIES}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        if execution not in (None, "block") or kernel_mode not in (None, "fast"):
            raise ConfigError(
                "the engine has one sparse executor: execution accepts only "
                f"None or 'block' (got {execution!r}), kernel_mode only None "
                f"or 'fast' (got {kernel_mode!r})"
            )
        if batching not in BATCHING_MODES:
            raise ConfigError(
                f"batching must be one of {BATCHING_MODES}, got {batching!r}"
            )
        if batching == "packed" and method != "sample":
            raise ConfigError("batching='packed' requires method='sample'")
        if kv_backend not in KV_BACKENDS:
            raise ConfigError(
                f"kv_backend must be one of {KV_BACKENDS}, got {kv_backend!r}"
            )
        self.model = model
        self.method = method
        self.config = config
        self.chunk_size = chunk_size
        self.scheduler = ChunkScheduler(scheduler)
        self.max_queue = max_queue
        self.admission_policy = admission_policy
        self.billing = billing
        self.length_scale = length_scale
        self.seed = seed
        self.prompt_builder = prompt_builder
        self.plan_cache = PlanCache(replan_interval)
        self.fault_injector = fault_injector
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.degrade_after = degrade_after
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown_chunks)
        self.batching = batching
        self.max_batch_requests = max_batch_requests
        self.kv_backend = kv_backend
        self.arena_blocks = arena_blocks
        self.block_tokens = block_tokens
        self.prefix_sharing = prefix_sharing
        # Paged-KV state; created fresh per run() so same-seed runs (and
        # the chaos drill's bitwise summary comparison) stay identical.
        self._arena: KVArena | None = None
        self._decode_gather: BatchedKVGather | None = None
        self._sharing: PrefixSharingRegistry | None = None
        self._pressure: MemoryPressureController | None = None
        self.memory_breaker: CircuitBreaker | None = None
        self._workspace = KernelWorkspace()  # warm scratch across chunks
        self._profiler = StageProfiler()
        # Plan provider (config.provider); recreated fresh per run() so
        # stateful providers (MInference's memoised head profiles) never
        # leak state across runs and same-seed replays stay bitwise equal.
        self._provider = make_provider(config.provider)
        # The "widened" ladder rung: double the window and the stage-1
        # sample, quadruple the stripe floor -- cheaper than dense, far more
        # conservative than the tuned plan (the paper's knobs all moved
        # toward recall).
        self._widened_config = config.replace(
            r_window=min(1.0, 2.0 * config.r_window),
            r_row=min(1.0, 2.0 * config.r_row),
            min_keep=max(4 * config.min_keep, 4),
        )

    # -------------------------------------------------------------- prompts
    def executed_len(self, request: Request) -> int:
        """Substrate tokens executed for one workload request."""
        return _executed_len(request, self.length_scale)

    # ------------------------------------------------------------ admission
    def _make_job(self, request: Request, tm: RequestTelemetry) -> _Job:
        tokens = executed_prompt(
            request,
            length_scale=self.length_scale,
            seed=self.seed,
            prompt_builder=self.prompt_builder,
        )
        tm.executed_len = int(tokens.size)
        capacity = int(tokens.size + request.decode_tokens + 1)
        start = 0
        if self._arena is not None:
            caches: list = [
                PagedLayerKVCache(self._arena, capacity)
                for _ in range(self.model.config.n_layers)
            ]
            if self._sharing is not None and tokens.size > 1:
                # Cap adoption so at least one token always executes (the
                # last chunk's logits seed decoding).
                hit = self._sharing.lookup(
                    tokens,
                    max_blocks=(int(tokens.size) - 1) // self.block_tokens,
                )
                if hit is not None:
                    blocks_per_layer, positions = hit
                    for cache, blocks in zip(caches, blocks_per_layer):
                        cache.adopt_shared(list(blocks), positions)
                    start = int(positions.size)
                    tm.shared_tokens = start
                    self._registry.inc("prefix_cache_hits")
                    self._registry.inc("prefix_tokens_reused", float(start))
        else:
            caches = self.model.new_caches(capacity=capacity)
        chunks = [
            (c0, min(c0 + self.chunk_size, tokens.size))
            for c0 in range(start, tokens.size, self.chunk_size)
        ]
        level = "sparse" if self.method == "sample" else "dense"
        tm.degradation_level = level
        return _Job(
            request=request,
            tokens=tokens,
            caches=caches,
            chunks_left=chunks,
            decode_left=request.decode_tokens,
            telemetry=tm,
            level=level,
            knorm_sq=[None] * self.model.config.n_layers,
        )

    # ----------------------------------------------------- paged KV memory
    def _release_job_kv(self, job: _Job) -> None:
        """Drop a paged job's block references exactly once (completion,
        rejection, shed, or deadline drop), folding cache stats into its
        telemetry first."""
        if self._arena is None or job.kv_released:
            return
        job.kv_released = True
        for cache in job.caches:
            cache.release()

    def _update_kv_peak(self, job: _Job) -> None:
        if self._arena is not None:
            resident = sum(c.nbytes_resident for c in job.caches)
            tm = job.telemetry
            tm.kv_bytes_peak = max(tm.kv_bytes_peak, resident)

    def _chunk_block_need(self, job: _Job) -> int:
        """Blocks the next quantum of ``job`` could allocate: growth to the
        chunk's end length per layer, plus one fork per layer (CoW on a
        rollback into a shared tail block)."""
        end = job.chunks_left[0][1] if job.chunks_left else job.position + 1
        blocks = -(-end // self.block_tokens)
        need = sum(max(0, blocks - c.n_blocks) + 1 for c in job.caches)
        return max(need, 1)

    def _relieve_memory(self, job: _Job) -> bool:
        """Walk the pressure ladder for ``job``'s next quantum.

        Eviction candidates are decode-phase jobs only -- prefill caches
        stay oracle-exact so the near-lossless story survives pressure.
        Returns ``False`` when the ladder's terminal rung was reached (the
        caller sheds ``job``)."""
        assert self._pressure is not None
        cand_jobs = [j for j in self._queue.items if not j.chunks_left]
        before = [
            sum(int(c.evictions) for c in j.caches) for j in cand_jobs
        ]
        ok = self._pressure.relieve(
            [j.caches for j in cand_jobs], self._chunk_block_need(job)
        )
        for j, n0 in zip(cand_jobs, before):
            n1 = sum(int(c.evictions) for c in j.caches)
            if n1 > n0:
                # Evicted KV invalidates any cached plans built over it --
                # a poisoned entry must not resurrect via extension either.
                self.plan_cache.drop_request(j.request.request_id)
                self._registry.inc("kv_evictions", float(n1 - n0))
                j.telemetry.kv_evictions += n1 - n0
                # The incremental k-norm tracker covered rows that may
                # just have been rewritten; force a full re-reduction.
                j.knorm_sq = [None] * len(j.caches)
        self._registry.inc("memory_pressure_relief" if ok else "memory_sheds")
        return ok

    def _relieve_exhaustion(self, job: _Job, mem_attempts: int) -> bool:
        """``job``'s quantum hit :class:`ArenaExhaustedError` (already
        rolled back) -- the memory analogue of a transient fault: record
        it, notify the memory breaker, walk the pressure ladder.  Returns
        whether to retry; ``False`` means the bounded budget
        (``mem_attempts`` retries so far) or the ladder ran out."""
        registry = self._registry
        registry.inc("arena_exhaustion_events")
        assert self.memory_breaker is not None
        if self.memory_breaker.record_violation():
            registry.inc("memory_breaker_trips")
        if mem_attempts > self.max_retries or not self._relieve_memory(job):
            registry.inc("retry_exhausted")
            return False
        job.telemetry.retries += 1
        registry.inc("chunk_retries")
        return True

    # ----------------------------------------------------- degradation ladder
    def _transition(self, job: _Job, to_level: str, reason: str) -> None:
        """Move ``job`` down the ladder, recording the audit trail."""
        tm = job.telemetry
        tm.transitions.append(
            {
                "chunk": job.chunk_index,
                "from": job.level,
                "to": to_level,
                "reason": reason,
            }
        )
        job.level = to_level
        job.level_violations = 0
        tm.degradation_level = to_level
        self._registry.inc("degradation_transitions")
        self._registry.inc(f"degraded_to_{to_level}")
        # Plans cached at the old rung (possibly the poisoned ones that got
        # us here) must not follow the request to the new one.
        self.plan_cache.drop_request(job.request.request_id)

    def _escalate(self, job: _Job, reason: str) -> None:
        nxt = DEGRADATION_LEVELS[DEGRADATION_LEVELS.index(job.level) + 1]
        self._transition(job, nxt, reason)

    # ------------------------------------------------------------ attention
    def _dense_attend(self, job: _Job, q, keys, values, scale):
        """Right-aligned dense causal fallback for one (job, layer) call:
        rows attend to the full prefix (an all-dense packed item)."""
        job.elements += q.shape[0] * total_causal_elements(
            q.shape[1], keys.shape[1]
        )
        with self._profiler.stage("dense"):
            return flash_attention(
                q, keys, values, scale=scale, workspace=self._workspace
            )

    def _record_violation(self, job: _Job, layer: int, reason: str) -> None:
        """One runtime CRA-guard trip: the plan in hand must not execute."""
        tm = job.telemetry
        tm.cra_violations += 1
        tm.plan_fallbacks += 1
        job.level_violations += 1
        self._registry.inc("cra_guard_violations")
        self._registry.inc(f"cra_violation_{reason}")
        self._registry.inc("plan_fallbacks")
        self.plan_cache.invalidate(job.request.request_id, layer)
        if self.breaker.record_violation():
            self._registry.inc("circuit_breaker_trips")

    def _sparse_plan(self, job: _Job, i: int, q, keys, scale, att: _Attempt):
        """Plan/guard gauntlet for one sparse (job, layer) attention call.

        Returns the plan cleared to execute sparsely, or ``None`` when the
        call must fall back to dense (degraded rung, open breaker, invalid
        or under-alpha plan).  ``att.breaker_dense`` counts the
        breaker-forced-dense event at most once per attempt.
        """
        if job.level not in _SPARSE_LEVELS:
            return None
        if not self.breaker.allow_sparse():
            if not att.breaker_dense:
                att.breaker_dense = True
                self._registry.inc("breaker_dense_chunks")
            return None
        rid = job.request.request_id
        tm = job.telemetry
        s_q, s_k, h = q.shape[1], keys.shape[1], q.shape[0]
        cfg = self.config if job.level == "sparse" else self._widened_config
        # The final chunk's rows produce the first token: they plan from
        # themselves rather than inherit stripes chosen chunks earlier.
        plan = self.plan_cache.get(
            rid,
            i,
            chunk_index=job.chunk_index,
            s_q=s_q,
            s_k=s_k,
            fresh=len(job.chunks_left) == 1,
        )
        if plan is None:
            plan = self._provider.plan(
                q, keys, cfg, scale=scale, profiler=self._profiler
            )
            self.plan_cache.put(rid, i, plan, chunk_index=job.chunk_index)
            tm.plan_misses += 1
            self._registry.inc("plan_cache_misses")
            # Stage-1 sampling scored |rows| x S_k entries per head.
            job.elements += h * plan.sampled_rows.size * s_k
        else:
            tm.plan_hits += 1
            self._registry.inc("plan_cache_hits")
        if not plan.validate(s_k=s_k):
            self._record_violation(job, i, "invalid_plan")
            return None
        # Runtime CRA guard: the plan's own coverage accounting must
        # clear alpha -- a structurally valid plan reporting less (a
        # semantically poisoned cache entry, or genuine drift) may not
        # execute sparsely.
        if float(np.min(plan.achieved_share)) < cfg.alpha - _CRA_EPS:
            self._record_violation(job, i, "share_below_alpha")
            return None
        return plan

    def _router(self, jobs: list[_Job], attempts: list[_Attempt]):
        """The per-layer attention router for one execution attempt of one
        chunk from each of ``jobs`` -- the engine's single prefill
        attention path, whatever the batch width.

        ``route(layer, entries)`` takes batch index -> ``(q, keys, values,
        scale)`` and returns batch index -> attention output: every entry
        whose plan clears the :meth:`_sparse_plan` gauntlet joins **one**
        packed dispatch, the rest fall back to dense per item.  An entry
        whose attempt is due an injected transient fault at this layer is
        counted, recorded on ``attempt.error`` and left out of the result
        (which drops it from the remaining layers); its caller rolls back
        and retries.
        """

        def route(i, entries):
            outs: dict = {}
            items: list = []
            meta: list = []
            for b in sorted(entries):
                job, att = jobs[b], attempts[b]
                q, keys, values, scale = entries[b]
                if att.fail_at == i:
                    self._count_fault(job, "fault_attend_transient")
                    att.error = FaultInjectionError(
                        f"injected transient attend failure (request "
                        f"{job.request.request_id}, chunk {job.chunk_index}, "
                        f"layer {i})"
                    )
                    continue
                plan = self._sparse_plan(job, i, q, keys, scale, att)
                if plan is None:
                    outs[b] = self._dense_attend(job, q, keys, values, scale)
                    continue
                with self._profiler.stage("pack"):
                    knorm = self._chunk_knorm(job, i, keys, q.shape[1])
                    att.knorm[i] = knorm
                    items.append(
                        PackedItem.from_plan(
                            q, keys, values, plan,
                            scale=scale, k_norm_sq=knorm[1], tag=b,
                        )
                    )
                    meta.append((b, job, plan))
            if items:
                outs.update(self._dispatch_packed(i, items, meta))
            return outs

        return route

    def _attend(self, job: _Job, att: _Attempt):
        """The per-request attention closure ``attend(layer, q, keys,
        values, scale)``: :meth:`_router` with a single entry.  Raises the
        attempt's injected fault where the router dropped the entry."""
        route = self._router([job], [att])

        def attend(i, q, keys, values, scale):
            outs = route(i, {0: (q, keys, values, scale)})
            if 0 not in outs:
                raise att.error
            return outs[0]

        return attend

    def _chunk_knorm(self, job: _Job, i: int, keys, chunk_rows: int):
        """``(covered_rows, max ||k||^2)`` over ``keys`` for (job, layer).

        When the stored value covers exactly the pre-chunk prefix, only
        the chunk's new rows are reduced and folded in with an exact
        float ``max`` -- bitwise equal to the full O(S_k) reduction the
        packed kernel would otherwise run per dispatch (per-row squared
        norms are row-independent, so the incremental max is the same
        float).  Falls back to the full reduction otherwise (first chunk,
        or after eviction invalidated the tracker)."""
        s_k = int(keys.shape[1])
        stored = job.knorm_sq[i] if job.knorm_sq is not None else None
        if (
            stored is not None
            and 0 < chunk_rows <= s_k
            and stored[0] == s_k - chunk_rows
        ):
            tail = keys[:, s_k - chunk_rows :, :]
            val = float(np.einsum("hsd,hsd->hs", tail, tail).max())
            return (s_k, max(stored[1], val))
        if s_k == 0:
            return (0, 0.0)
        return (s_k, float(np.einsum("hsd,hsd->hs", keys, keys).max()))

    def _dispatch_packed(self, layer: int, items: list, meta: list) -> dict:
        """One packed dispatch for every sparse (job, layer) call of an
        attempt, serial in the caller's thread.  ``meta``
        aligns with ``items`` as ``(batch_index, job, plan)``.  Returns
        batch index -> attention output; per-item accounting (breaker,
        billed elements, kept-KV telemetry) is per item, so it is the same
        whatever else shares the dispatch."""
        profiler = self._profiler
        with profiler.stage("attend"):
            try:
                pres = packed_block_sparse_attention(
                    items, workspace=self._workspace
                )
            except ReproError:
                # One bad item poisons the whole dispatch: every item in
                # it degrades to the validated dense fallback (rare --
                # each plan already passed the CRA gauntlet).
                outs = {}
                for it, (b, job, _plan) in zip(items, meta):
                    self._record_violation(job, layer, "kernel_error")
                    outs[b] = self._dense_attend(
                        job, it.q, it.k, it.v, it.scale
                    )
                return outs
        # Deterministic execution-path counters: the
        # one-dispatch-per-(layer, step) identity tests read these.
        profiler.count("packed_dispatches", 1)
        profiler.count("gemm_calls", pres.stats["gemm_calls"])
        for key in (
            "packed_requests",
            "packed_rows",
            "tiles_visited",
            "elements_computed",
        ):
            profiler.count(f"packed_{key.removeprefix('packed_')}",
                           pres.stats[key])
        outs = {}
        with profiler.stage("unpack"):
            for res, (b, job, plan) in zip(pres.results, meta):
                self.breaker.record_success()
                if contracts.enabled():
                    contracts.check_computed_elements(
                        plan, res.computed_elements
                    )
                # Billed elements = the plan's tile footprint x
                # block_size^2 (what the roofline's block kernel visits),
                # not the score elements this host computed.
                job.elements += (
                    float(res.visited_blocks.sum())
                    * plan.config.block_size ** 2
                )
                job.telemetry.kept_kv_ratios.append(plan.mean_kv_ratio)
                job.telemetry.element_densities.append(res.element_density)
                outs[b] = res.output
        return outs

    # -------------------------------------------------------------- quanta
    def _bill(self, job: _Job, wall_seconds: float) -> float:
        """Seconds this quantum advances the virtual clock by."""
        if self.billing == "measured":
            return wall_seconds
        seconds = executed_elements_seconds(
            job.elements, self.model.config.d_head, A100_80GB
        )
        job.elements = 0.0
        return seconds

    @staticmethod
    def _wall_shares(jobs: list[_Job], elements0: list[float], wall: float):
        """Apportion a fused step's ``wall`` seconds to ``jobs`` by their
        share of the elements billed since ``elements0``."""
        deltas = [max(j.elements - e0, 0.0) for j, e0 in zip(jobs, elements0)]
        total = sum(deltas)
        return [
            wall * (d / total if total > 0 else 1.0 / len(jobs)) for d in deltas
        ]

    def _count_fault(self, job: _Job, counter: str) -> None:
        """One injected fault hit ``job``: per-request, total, per-kind."""
        job.telemetry.faults_injected += 1
        self._registry.inc("faults_injected")
        self._registry.inc(counter)

    def _begin_chunk(self, job: _Job) -> int:
        """Once-per-chunk prologue, however many attempts follow: tick both
        breakers' cooldown clocks and fire the pre-chunk fault hooks.
        Returns how many leading attempts must fail transiently.  An arena
        burst stays reserved until the caller's ``release_reserved``."""
        self.breaker.tick()
        if self.memory_breaker is not None:
            self.memory_breaker.tick()
        inj = self.fault_injector
        if inj is None:
            return 0
        rid, chunk = job.request.request_id, job.chunk_index
        # Fault hook: corrupt this request's cached plans before the chunk.
        if job.level in _SPARSE_LEVELS:
            mode = inj.poison_mode(rid, chunk)
            if mode is not None:
                n = self.plan_cache.poison(
                    rid,
                    lambda layer, p: corrupt_plan(
                        p, mode, inj.corruption_rng(rid, chunk, layer)
                    ),
                )
                if n:
                    self._count_fault(job, "fault_plan_poison")
        # Fault hook: an arena-exhaustion burst reserves free blocks for
        # the duration of this chunk's quantum.
        if self._arena is not None:
            frac = inj.arena_burst(rid, chunk)
            if frac > 0.0:
                take = int(frac * self._arena.blocks_free)
                if take and self._arena.reserve(take):
                    self._count_fault(job, "fault_arena_exhaustion")
        return inj.attend_failures(rid, chunk)

    @staticmethod
    def _next_chunk(job: _Job) -> tuple:
        """``(tokens, positions, caches)`` of ``job``'s next prefill chunk."""
        c0, c1 = job.chunks_left[0]
        return job.tokens[c0:c1], np.arange(c0, c1, dtype=np.int64), job.caches

    def _new_attempt(self, job: _Job, must_fail: int, attempt: int) -> _Attempt:
        n_layers = self.model.config.n_layers
        return _Attempt(
            fail_at=(
                self.fault_injector.fail_layer(
                    job.request.request_id, job.chunk_index, attempt, n_layers
                )
                if attempt < must_fail
                else None
            ),
            marks=[len(c) for c in job.caches],
            elements0=job.elements,
            knorm=[None] * n_layers,
        )

    def _retry_chunk(
        self,
        job: _Job,
        must_fail: int,
        failed: _Attempt | None = None,
        seconds: float = 0.0,
    ) -> tuple[float, bool]:
        """Per-request attempts at ``job``'s next chunk until one commits
        or a retry budget runs out; returns ``(virtual seconds, ok)``.

        Each attempt is the router with a single entry.  ``ok=False``
        means the chunk still failed after the budget (the caller sheds
        the request; the seconds spent are still billed).  A failed
        attempt rolls the KV caches back to its marks; transient faults
        retry after exponential backoff with seeded jitter, arena
        exhaustion after walking the pressure ladder.  ``failed`` is a
        packed step's abandoned fused attempt 0 (already billed into
        ``seconds``), whose failure is handled here before attempt 1.
        """
        rid = job.request.request_id
        tm = job.telemetry
        registry = self._registry
        inj = self.fault_injector
        chunk = job.chunk_index
        attempt = mem_attempts = 0
        att = failed
        while True:
            if att is None:
                att = self._new_attempt(job, must_fail, attempt)
                t0 = time.perf_counter()
                try:
                    x = self.model.prefill_chunk(
                        *self._next_chunk(job), self._attend(job, att)
                    )
                except (ArenaExhaustedError, FaultInjectionError) as exc:
                    att.error = exc
                    seconds += self._bill(job, time.perf_counter() - t0)
                else:
                    wall = time.perf_counter() - t0
                    return (
                        self._commit_chunk(
                            job, x, att, wall, seconds, clean=mem_attempts == 0
                        ),
                        True,
                    )
            for cache, mark in zip(job.caches, att.marks):
                cache.truncate(mark)
            if isinstance(att.error, ArenaExhaustedError):
                if not self._relieve_exhaustion(job, mem_attempts):
                    return seconds, False
                seconds += self.retry_backoff_s * (2.0**mem_attempts)
                mem_attempts += 1
            else:
                if attempt >= self.max_retries:
                    registry.inc("retry_exhausted")
                    return seconds, False
                tm.retries += 1
                registry.inc("chunk_retries")
                jitter = (
                    inj.backoff_jitter(rid, chunk, attempt)
                    if inj is not None
                    else 1.0
                )
                seconds += self.retry_backoff_s * (2.0**attempt) * jitter
                attempt += 1
            att = None

    def _commit_chunk(
        self,
        job: _Job,
        x,
        att: _Attempt,
        wall: float,
        seconds: float = 0.0,
        *,
        clean: bool = True,
    ) -> float:
        """Land ``job``'s successfully executed chunk (final residual rows
        ``x``, successful attempt ``att`` taking ``wall`` seconds) and
        return the quantum's virtual seconds, ``seconds`` being what failed
        attempts and backoff already cost.  ``clean`` says no attempt hit
        arena exhaustion."""
        rid = job.request.request_id
        chunk = job.chunk_index
        registry = self._registry
        inj = self.fault_injector
        if self.memory_breaker is not None and clean:
            # A whole chunk without exhaustion: pressure has subsided.
            self.memory_breaker.record_success()
        job.chunks_left.pop(0)
        if not job.chunks_left:
            # Prefill complete: the last row's logits yield the first token.
            job.next_token = int(np.argmax(self.model.logits(x[-1:])[0]))
            job.position = int(job.tokens.size)
            if self._sharing is not None:
                # Publish the full-block prefix before decode-phase
                # eviction can touch these caches (registry holds refs, so
                # the shared blocks outlive this donor request).
                if self._sharing.register(job.tokens, job.caches):
                    registry.inc("prefix_registrations")
        self._update_kv_peak(job)
        job.chunk_index += 1
        bill = self._bill(job, wall)
        if inj is not None:
            # Latency faults scale the successful attempt's bill (backoff
            # and failed attempts are billed unscaled).
            if inj.spike_fired(rid, chunk):
                self._count_fault(job, "fault_latency_spike")
            if inj.is_straggler(rid):
                registry.inc("fault_straggler_chunks")
            bill *= inj.latency_multiplier(rid, chunk)
        seconds += bill
        if inj is not None:
            # A slow chunk stretches the whole quantum -- retries, backoff,
            # and the successful attempt alike (a latency spike scales only
            # the successful bill above).
            slow = inj.slow_factor(rid, chunk)
            if slow > 1.0:
                self._count_fault(job, "fault_slow_chunk")
                seconds *= slow
        # Advance the incremental k-norm tracker only now (a rolled-back
        # attempt must not advance coverage).
        for li, staged in enumerate(att.knorm):
            if staged is not None:
                job.knorm_sq[li] = staged
        if job.level in _SPARSE_LEVELS and (
            job.level_violations >= self.degrade_after
        ):
            self._escalate(job, "cra_guard")
        return seconds

    def _run_chunk(self, job: _Job) -> tuple[float, bool]:
        """The per-request prefill quantum: begin, then the retry loop."""
        try:
            return self._retry_chunk(job, self._begin_chunk(job))
        finally:
            if self._arena is not None:
                self._arena.release_reserved()

    def _run_packed_step(self, jobs: list[_Job]) -> list[tuple[float, bool]]:
        """Execute one co-scheduled prefill chunk from each of ``jobs`` as
        a single packed batch step: per layer, every job's sparse
        attention runs as **one** packed kernel dispatch; dense/degraded
        calls fall back per request inside the same step.

        Returns ``(virtual seconds, ok)`` per job, in ``jobs`` order.  The
        fused pass is every job's attempt 0.  A job that faults in it
        (injected attend failure, arena exhaustion) drops out of the
        remaining layers without disturbing the others, then enters the
        per-request :meth:`_retry_chunk` loop where that attempt failed --
        so the fault is counted once, breakers tick and fault hooks fire
        once per chunk, and retry/backoff/ladder semantics are the
        per-request ones.  Equal to per-request mode: generated tokens
        always; every non-``kernel_*`` counter when fault-free, and under
        faults when ``max_batch_requests=1`` (the same schedule).  Not
        equal: under faults in wider batches, breaker- and memory-coupled
        counters, because co-scheduled jobs interleave per layer.  The
        step's wall time is apportioned by share of billed elements.
        """
        try:
            must_fail = [self._begin_chunk(job) for job in jobs]
            attempts = [
                self._new_attempt(job, n, 0) for job, n in zip(jobs, must_fail)
            ]

            def on_append_error(b, _layer, exc):
                if not isinstance(
                    exc, (ArenaExhaustedError, FaultInjectionError)
                ):
                    raise exc
                attempts[b].error = exc

            t0 = time.perf_counter()
            xs = self.model.prefill_chunk_batch(
                [self._next_chunk(job) for job in jobs],
                self._router(jobs, attempts),
                on_error=on_append_error,
            )
            wall = time.perf_counter() - t0
            self._profiler.count("packed_prefill_steps", 1)

            shares = self._wall_shares(
                jobs, [att.elements0 for att in attempts], wall
            )
            results: list[tuple[float, bool]] = []
            for job, att, n, x, share in zip(
                jobs, attempts, must_fail, xs, shares
            ):
                if att.error is not None:
                    results.append(
                        self._retry_chunk(job, n, att, self._bill(job, share))
                    )
                else:
                    results.append((self._commit_chunk(job, x, att, share), True))
            return results
        finally:
            if self._arena is not None:
                self._arena.release_reserved()

    def _decode_quantum(self, job: _Job) -> int:
        """Decode tokens ``job`` runs in one scheduling turn."""
        if self.scheduler.policy == "fcfs":
            return job.decode_left
        return min(job.decode_left, _DECODE_CHUNK_TOKENS)

    def _run_decode(self, job: _Job, steps: int) -> tuple[float, bool]:
        """Execute ``steps`` greedy decode tokens; returns ``(virtual
        seconds, ok)``.  ``ok=False`` means the paged arena stayed
        exhausted through the pressure ladder (the caller sheds)."""
        t0 = time.perf_counter()
        with self._profiler.stage("decode"):
            ok = self._decode_steps(job, steps)
        seconds = self._bill(job, time.perf_counter() - t0)
        self._update_kv_peak(job)
        return seconds, ok

    def _decode_steps(self, job: _Job, steps: int) -> bool:
        # On the paged backend, decode records attention mass so the
        # heavy-hitter eviction policy has scores to rank by (numerics of
        # the decoded logits are unchanged by recording).
        record = self._arena is not None
        cfg = self.model.config
        for _ in range(steps):
            assert job.next_token is not None
            job.generated.append(job.next_token)
            job.elements += (
                cfg.n_layers * cfg.n_kv_heads * (len(job.caches[0]) + 1)
            )
            mem_attempts = 0
            while True:
                marks = [len(c) for c in job.caches]
                try:
                    logits = self.model.decode_step(
                        job.next_token,
                        job.position,
                        job.caches,
                        record_attention=record,
                    )
                except ArenaExhaustedError:
                    for cache, mark in zip(job.caches, marks):
                        cache.truncate(mark)
                    if not self._relieve_exhaustion(job, mem_attempts):
                        return False
                    mem_attempts += 1
                    continue
                break
            job.next_token = int(np.argmax(logits))
            job.position += 1
            job.decode_left -= 1
        return True

    def _dispatch_packed_decode(
        self, layer: int, items: dict, record: bool
    ) -> dict:
        """One fused decode attention dispatch for every live batched
        request at one layer.  ``items`` maps batch index to ``(q, keys,
        values, scale)``; returns batch index -> ``(output, probs)``.

        Counts exactly one ``packed_decode_dispatches`` per call --
        including the empty-batch call :meth:`Transformer.decode_batch`
        still makes after every request dropped -- so the engine's
        ``dispatches == n_layers x steps`` identity is structural, not
        best-effort.
        """
        profiler = self._profiler
        profiler.count("packed_decode_dispatches", 1)
        if not items:
            return {}
        with profiler.stage("attend"):
            res = packed_decode_attention(
                [
                    PackedDecodeItem(q=q, k=k, v=v, scale=s, tag=b)
                    for b, (q, k, v, s) in items.items()
                ],
                return_probs=record,
            )
        profiler.count("packed_decode_requests", res.stats["decode_requests"])
        profiler.count("packed_decode_kv_tokens", res.stats["kv_tokens"])
        probs = res.probs if res.probs is not None else [None] * len(items)
        return {b: (res.outputs[j], probs[j]) for j, b in enumerate(items)}

    def _run_decode_batch(
        self, jobs: list[_Job]
    ) -> list[tuple[float, bool]]:
        """Execute one decode quantum for each of ``jobs`` as lockstep
        fused batch steps: per step, every live request's token runs
        through :meth:`Transformer.decode_batch` -- one packed attention
        dispatch per layer for the whole batch -- until the longest
        quantum is exhausted (requests with shorter quanta simply leave
        the batch early).  Returns ``(virtual seconds, ok)`` per job, in
        ``jobs`` order.

        Fault isolation mirrors :meth:`_run_packed_step`: a request whose
        cache append hits :class:`ArenaExhaustedError` mid-step abandons
        the fused attempt, rolls back that step (caches to their pre-step
        marks, which discards staged attention mass; the speculative
        token and billed elements are undone), and replays its *remaining*
        quantum through the per-request :meth:`_run_decode` -- which owns
        the pressure ladder, retry counting, and shed decision.  The
        fused steps' wall time is apportioned by billed-element share.
        """
        registry = self._registry
        cfg = self.model.config
        n_layers, h_kv = cfg.n_layers, cfg.n_kv_heads
        record = self._arena is not None
        quanta = [self._decode_quantum(job) for job in jobs]
        elements0 = [job.elements for job in jobs]
        #: batch index -> steps of its quantum still owed at abandonment
        #: (including the rolled-back step itself).
        aborted: dict[int, int] = {}

        def on_append_error(_entry, _layer, exc):
            if not isinstance(exc, ArenaExhaustedError):
                raise exc
            registry.inc("arena_exhaustion_events")
            assert self.memory_breaker is not None
            if self.memory_breaker.record_violation():
                registry.inc("memory_breaker_trips")

        t0 = time.perf_counter()
        with self._profiler.stage("decode"):
            for step in range(max(quanta, default=0)):
                stepping = [
                    bi
                    for bi in range(len(jobs))
                    if quanta[bi] > step and bi not in aborted
                ]
                if not stepping:
                    break
                marks = {
                    bi: [len(c) for c in jobs[bi].caches] for bi in stepping
                }
                added = {}
                entries = []
                for bi in stepping:
                    job = jobs[bi]
                    assert job.next_token is not None
                    job.generated.append(job.next_token)
                    added[bi] = float(
                        n_layers * h_kv * (len(job.caches[0]) + 1)
                    )
                    job.elements += added[bi]
                    entries.append((job.next_token, job.position, job.caches))

                results = self.model.decode_batch(
                    entries,
                    lambda i, items: self._dispatch_packed_decode(
                        i, items, record
                    ),
                    record_attention=record,
                    on_error=on_append_error,
                    gather=self._decode_gather,
                )
                self._profiler.count("packed_decode_steps", 1)
                for j, bi in enumerate(stepping):
                    job = jobs[bi]
                    logits = results[j]
                    if logits is None:
                        # Abandon the fused attempt for this request: the
                        # per-request replay below re-runs this step and
                        # the rest of the quantum under ladder semantics.
                        for cache, mark in zip(job.caches, marks[bi]):
                            cache.truncate(mark)
                        job.generated.pop()
                        job.elements -= added[bi]
                        aborted[bi] = quanta[bi] - step
                        continue
                    job.next_token = int(np.argmax(logits))
                    job.position += 1
                    job.decode_left -= 1
        wall = time.perf_counter() - t0

        shares = self._wall_shares(jobs, elements0, wall)
        results_out: list[tuple[float, bool]] = []
        for bi, job in enumerate(jobs):
            partial = self._bill(job, shares[bi])
            if bi in aborted:
                seconds, ok = self._run_decode(job, aborted[bi])
                results_out.append((partial + seconds, ok))
                continue
            self._update_kv_peak(job)
            results_out.append((partial, True))
        return results_out

    # --------------------------------------------------------------- runner
    def reset(self) -> None:
        """Restore fresh-process state: what a worker restart gives you.

        Clears the plan cache (entries *and* stats) and re-arms the
        breaker and kernel workspace (:meth:`run` starts every run with a
        fresh profiler and plan provider anyway).  Engine configuration,
        the model, and the seed are untouched, so a reset engine replays a
        workload identically to a newly constructed one -- the property
        the fleet's crash-recovery determinism rests on.
        """
        self.plan_cache.clear()
        self.breaker = CircuitBreaker(
            self.breaker.threshold, self.breaker.cooldown_chunks
        )
        self._workspace = KernelWorkspace()

    def run(self, requests: list[Request]) -> EngineResult:
        """Serve the stream; every request ends completed/rejected/shed."""
        registry = MetricsRegistry()
        self._registry = registry
        self._profiler = StageProfiler()  # fresh stage breakdown per run
        self._provider = make_provider(self.config.provider)
        # Cache stats are cumulative over the engine's lifetime; fold only
        # this run's delta into its registry (a fleet worker serves many
        # single-request runs on one engine).
        stats0 = dict(self.plan_cache.stats.as_dict())
        pending = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        queue: AdmissionQueue[_Job] = AdmissionQueue(
            self.max_queue, self.admission_policy
        )
        self._queue = queue
        if self.kv_backend == "paged":
            cfg = self.model.config
            bt = self.block_tokens
            if self.arena_blocks is None:
                # Auto-size to worst-case demand (everyone resident, no
                # sharing) plus a fork block per layer: default runs see
                # no pressure; drills pass a budget to create it.
                need = sum(
                    cfg.n_layers
                    * (-(-(self.executed_len(r) + r.decode_tokens + 1) // bt))
                    for r in pending
                )
                n_blocks = max(need + cfg.n_layers, 1)
            else:
                n_blocks = self.arena_blocks
            self._arena = KVArena(n_blocks, cfg.n_kv_heads, bt, cfg.d_head)
            # Fused decode steps read every cache through one hook so the
            # run can report how many KV tokens decode copied vs. reused.
            self._decode_gather = BatchedKVGather()
            self._sharing = (
                PrefixSharingRegistry(self._arena)
                if self.prefix_sharing
                else None
            )
            self._pressure = MemoryPressureController(
                self._arena,
                self._sharing,
                HeavyHitterPolicy(),
                min_keep_tokens=max(self.block_tokens, 1),
            )
            self.memory_breaker = CircuitBreaker(
                _MEMORY_BREAKER_THRESHOLD, _MEMORY_BREAKER_COOLDOWN_CHUNKS
            )
        else:
            self._arena = self._sharing = self._pressure = None
            self._decode_gather = None
            self.memory_breaker = None
        now = 0.0
        idx = 0

        def sheddable(j: _Job) -> bool:
            return j.telemetry.first_chunk_start is None

        def drop(j: _Job, outcome: str) -> None:
            j.telemetry.outcome = outcome
            registry.inc(outcome)
            self.plan_cache.drop_request(j.request.request_id)
            self._release_job_kv(j)

        def admit(until: float) -> None:
            nonlocal idx
            while idx < len(pending) and pending[idx].arrival <= until:
                r = pending[idx]
                idx += 1
                tm = registry.new_request(r.request_id, r.arrival, r.prompt_len)
                if (
                    self.memory_breaker is not None
                    and not self.memory_breaker.allow_sparse()
                ):
                    # Memory breaker open: backpressure at the door.
                    tm.outcome = "rejected"
                    registry.inc("rejected")
                    registry.inc("memory_breaker_rejections")
                    continue
                job = self._make_job(r, tm)
                outcome = queue.offer(job, sheddable=sheddable)
                if outcome.shed is not None:
                    drop(outcome.shed, "shed")
                if outcome.admitted:
                    tm.outcome = "queued"
                    registry.inc("admitted")
                else:
                    drop(job, "rejected")

        def start(j: _Job) -> None:
            if j.telemetry.first_chunk_start is None:
                j.telemetry.first_chunk_start = now
                j.telemetry.outcome = "running"

        def settle(job: _Job, prefill: bool, seconds: float, ok: bool) -> bool:
            """Account one executed quantum of ``job`` (a prefill chunk or a
            decode quantum): advance the clock, then shed, deliver the
            first token, or complete.  Returns whether it stays queued."""
            nonlocal now
            tm = job.telemetry
            now += seconds
            if prefill:
                tm.chunk_seconds.append(seconds)
                registry.observe("chunk_seconds", seconds)
            else:
                tm.decode_seconds += seconds
            if not ok:
                # Terminal rung of the ladder: the chunk's retry budget ran
                # out, or the arena stayed exhausted through the pressure
                # ladder during decode.
                reason = "retry_exhausted" if prefill else "memory_pressure"
                queue.remove(job)
                self._transition(job, "shed", reason)
                tm.finish = now
                drop(job, "shed")
                return False
            if prefill and not job.chunks_left:
                tm.first_token = now
            if job.chunks_left or job.decode_left > 0:
                return True
            queue.remove(job)
            tm.finish = now
            tm.generated = list(job.generated)
            drop(job, "completed")
            return False

        admit(0.0)
        while queue.items or idx < len(pending):
            if not queue.items:
                now = max(now, pending[idx].arrival)
                admit(now)
                continue

            if self.deadline_s is not None:
                # Deadline sweep: expired jobs are dropped before their next
                # quantum (lenient -- a quantum that finishes a request
                # always delivers it).
                expired = [
                    j
                    for j in queue.items
                    if now - j.request.arrival > self.deadline_s
                ]
                for j in expired:
                    queue.remove(j)
                    j.telemetry.finish = now
                    drop(j, "deadline_exceeded")
                if not queue.items:
                    continue

            if self.batching == "packed":
                # One engine step serves a whole co-scheduled batch:
                # prefill jobs share one packed dispatch per layer, decode
                # jobs share one fused decode dispatch per (layer, step),
                # and the virtual clock advances sequentially in batch
                # order.
                batch = [
                    queue.items[i]
                    for i in self.scheduler.select_batch(
                        queue.items, self.max_batch_requests
                    )
                ]
                prefill_jobs, decode_jobs = [], []
                for job in batch:
                    start(job)
                    (prefill_jobs if job.chunks_left else decode_jobs).append(job)
                ran: dict[int, tuple] = {}
                if prefill_jobs:
                    for job, res in zip(
                        prefill_jobs, self._run_packed_step(prefill_jobs)
                    ):
                        ran[id(job)] = (True, *res)
                if decode_jobs:
                    for job, res in zip(
                        decode_jobs, self._run_decode_batch(decode_jobs)
                    ):
                        ran[id(job)] = (False, *res)
                live = 0
                for job in batch:
                    live += settle(job, *ran[id(job)])
                self.scheduler.rotate_batch(queue.items, live)
                admit(now)
                continue

            job = queue.items[self.scheduler.select(queue.items)]
            start(job)
            if job.chunks_left:
                live = settle(job, True, *self._run_chunk(job))
            else:
                steps = self._decode_quantum(job)
                live = settle(job, False, *self._run_decode(job, steps))
            if live:
                self.scheduler.rotate(queue.items)
            admit(now)

        # hits/misses were streamed live; fold in the remaining cache stats
        # (as deltas against the run-start snapshot).
        stats = self.plan_cache.stats
        for name, attr in (
            ("plan_cache_stores", "stores"),
            ("plan_cache_invalid", "invalid"),
            ("plan_cache_evictions", "evictions"),
            ("plan_cache_poisoned", "poisoned"),
        ):
            registry.inc(name, float(getattr(stats, attr) - stats0[attr]))
        if self.batching == "packed":
            # Hard dispatch identity: every fused decode step issued
            # exactly one packed decode dispatch per layer (empty-batch
            # layers included).  Always-on -- a violation means the fused
            # path silently fell back or double-dispatched.
            steps_ct = self._profiler.counts.get("packed_decode_steps", 0)
            disp_ct = self._profiler.counts.get(
                "packed_decode_dispatches", 0
            )
            expected = self.model.config.n_layers * steps_ct
            if disp_ct != expected:
                raise ReproError(
                    f"packed decode dispatch identity violated: "
                    f"{disp_ct} dispatches != {self.model.config.n_layers} "
                    f"layers x {steps_ct} steps"
                )
        # Kernel execution-path counts are deterministic (unlike timings),
        # so they may join the counters the seeded drills compare.
        for name, value in self._profiler.counts.items():
            registry.inc(f"kernel_{name}", value)
        memory: dict = {}
        if self._arena is not None:
            sharing_stats = (
                self._sharing.stats() if self._sharing is not None else None
            )
            if self._sharing is not None:
                self._sharing.clear()  # registry refs released at shutdown
            assert self._pressure is not None
            assert self.memory_breaker is not None
            assert self._decode_gather is not None
            memory = {
                "arena": self._arena.stats(),
                "sharing": sharing_stats,
                "pressure": self._pressure.stats(),
                "memory_breaker_trips": self.memory_breaker.trips,
                "decode_gather": self._decode_gather.stats(),
            }
            # Deterministic block-accounting counters join the registry so
            # the seeded drills can compare them run to run.
            registry.inc(
                "arena_peak_blocks", float(self._arena.peak_blocks_in_use)
            )
            registry.inc("arena_forks", float(self._arena.forks))
            registry.inc(
                "arena_leaked_blocks", float(self._arena.blocks_in_use)
            )
        return EngineResult(
            telemetry=registry,
            method=self.method,
            stages=self._profiler.report(),
            memory=memory,
        )
