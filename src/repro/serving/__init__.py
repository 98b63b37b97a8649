"""Serving layer: a discrete-event simulator and an executing engine.

Two views of the same question -- what does faster prefill buy under a
request stream?  :class:`ServingSimulator` *bills* roofline costs for
paper-scale hardware; :class:`ServingEngine` *executes* chunked prefill and
decode on the numpy substrate with a sparse-plan cache, bounded admission,
and per-request telemetry.  Both share the workload generator and the
chunk-granular scheduling policies.

The robustness layer rides on the engine: a seeded
:class:`~repro.serving.faults.FaultInjector` adversary, per-request
deadlines and bounded retry, a :class:`CircuitBreaker` over sparse
planning, and the :data:`DEGRADATION_LEVELS` ladder
(sparse -> widened -> dense -> shed), audited by
:func:`check_recovery_invariants`.

The memory layer (``kv_backend="paged"``, see :mod:`repro.memory`) pools
all KV in one arena with per-request block tables, copy-on-write prefix
sharing, and a memory-pressure ladder (registry shrink -> live eviction ->
shed) behind a second :class:`CircuitBreaker` gating admissions.

The fleet layer (:mod:`repro.serving.fleet`) supervises N engine workers
behind one :class:`~repro.serving.router.Router` front door: heartbeat
health states (:data:`HEALTH_STATES`), crash detection with bounded
exponential-backoff restart, epoch-fenced re-dispatch of in-flight
requests, and a fleet-level degradation rung (:data:`FLEET_RUNGS`,
``normal -> reroute -> brownout -> shed``) above each worker's
per-request ladder.

Public API::

    from repro.serving import (
        Request, RequestMetrics, poisson_workload, ServingSimulator,
        ServingEngine, EngineResult, CircuitBreaker, DEGRADATION_LEVELS,
        ChunkScheduler, AdmissionQueue, AdmissionOutcome,
        PlanCache, PlanCacheStats,
        MetricsRegistry, RequestTelemetry, TERMINAL_OUTCOMES,
        FaultInjector, corrupt_plan, CORRUPTION_MODES, FAULT_KINDS,
        inject_admission_burst, ChaosScenario, chaos_scenario,
        check_recovery_invariants,
        FaultInjectionError, DeadlineExceededError,
        FleetEngine, FleetResult, EngineWorker,
        Router, ROUTING_POLICIES, FLEET_RUNGS,
        Supervisor, WorkerHealth, HEALTH_STATES,
    )
"""

from ..errors import DeadlineExceededError, FaultInjectionError
from .engine import (
    BATCHING_MODES,
    DEGRADATION_LEVELS,
    KV_BACKENDS,
    CircuitBreaker,
    EngineResult,
    ServingEngine,
)
from .faults import (
    CORRUPTION_MODES,
    FAULT_KINDS,
    SEMANTIC_CORRUPTIONS,
    STRUCTURAL_CORRUPTIONS,
    ChaosScenario,
    FaultInjector,
    chaos_scenario,
    check_recovery_invariants,
    corrupt_plan,
    inject_admission_burst,
)
from .fleet import EngineWorker, FleetEngine, FleetResult
from .plan_cache import CachedPlan, PlanCache, PlanCacheStats
from .router import FLEET_RUNGS, ROUTING_POLICIES, Router
from .scheduler import (
    ADMISSION_POLICIES,
    SCHEDULER_NAMES,
    AdmissionOutcome,
    AdmissionQueue,
    ChunkScheduler,
)
from .simulator import (
    Request,
    RequestMetrics,
    ServingSimulator,
    poisson_workload,
)
from .supervisor import HEALTH_STATES, Supervisor, WorkerHealth
from .telemetry import TERMINAL_OUTCOMES, MetricsRegistry, RequestTelemetry

__all__ = [
    "Request",
    "RequestMetrics",
    "ServingSimulator",
    "poisson_workload",
    "ServingEngine",
    "EngineResult",
    "CircuitBreaker",
    "BATCHING_MODES",
    "DEGRADATION_LEVELS",
    "KV_BACKENDS",
    "ChunkScheduler",
    "AdmissionQueue",
    "AdmissionOutcome",
    "SCHEDULER_NAMES",
    "ADMISSION_POLICIES",
    "PlanCache",
    "PlanCacheStats",
    "CachedPlan",
    "MetricsRegistry",
    "RequestTelemetry",
    "TERMINAL_OUTCOMES",
    "FaultInjector",
    "corrupt_plan",
    "CORRUPTION_MODES",
    "STRUCTURAL_CORRUPTIONS",
    "SEMANTIC_CORRUPTIONS",
    "FAULT_KINDS",
    "inject_admission_burst",
    "ChaosScenario",
    "chaos_scenario",
    "check_recovery_invariants",
    "FaultInjectionError",
    "DeadlineExceededError",
    "FleetEngine",
    "FleetResult",
    "EngineWorker",
    "Router",
    "ROUTING_POLICIES",
    "FLEET_RUNGS",
    "Supervisor",
    "WorkerHealth",
    "HEALTH_STATES",
]
