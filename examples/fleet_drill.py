"""Fleet drill: a supervised 3-worker fleet survives crashing workers.

One engine surviving chaos (see chaos_drill.py) is table stakes; a fleet
has to survive the *workers themselves* failing.  This example puts a
seeded request stream through `FleetEngine` -- three `ServingEngine`
workers behind one admission door -- while the adversary crashes workers
mid-execution, stalls them past their heartbeat deadline, and silences
healthy workers' heartbeats, on top of the usual engine-level faults.

The machinery on display: virtual-clock heartbeats driving the
healthy -> suspect -> dead ladder, backed-off restarts with a hard
budget, epoch-fenced re-dispatch (in-flight requests drained off a dead
worker carry their *remaining* deadline budget elsewhere; a completion
from a falsely-declared-dead incarnation is fenced, never delivered
twice), and the fleet-level degradation rung the router holds above the
per-worker ladders (normal -> reroute -> brownout -> shed).

Everything is seeded: the supervision story -- who died when, who
restarted, which requests moved -- replays bit for bit.

Run:  PYTHONPATH=src python examples/fleet_drill.py        (~15 s)
"""

import numpy as np

from repro.model import build_model
from repro.serving import (
    FaultInjector,
    FleetEngine,
    check_recovery_invariants,
    poisson_workload,
)

SEED = 7

rng = np.random.default_rng(SEED)
requests = poisson_workload(
    rng,
    rate_per_s=4.0,
    duration_s=2.0,
    prompt_lens=(8192, 16384),
    decode_tokens=2,
)
injector = FaultInjector(
    SEED,
    p_attend_fault=0.15,  # the engine-level adversary stays armed ...
    max_transient_failures=2,
    p_latency_spike=0.15,
    spike_multiplier=4.0,
    p_worker_crash=0.25,  # ... and the fleet-level one joins it
    p_worker_stall=0.1,  # executions stretched past heartbeat deadlines
    worker_stall_multiplier=8.0,
    p_heartbeat_loss=0.05,  # healthy workers going silent
)
model = build_model("glm-mini")


def drill():
    fleet = FleetEngine(
        model,
        n_workers=3,
        routing_policy="least_loaded",
        max_queue=6,
        admission_policy="shed_oldest",
        deadline_s=4.0,
        max_redispatch=2,  # crash re-dispatches per request, then shed
        heartbeat_interval_s=0.05,
        restart_backoff_s=0.02,
        max_restarts=5,
        fault_injector=injector,
        method="sample",
        chunk_size=96,
        length_scale=32,
        billing="roofline",  # deterministic virtual clock
        max_retries=2,
        degrade_after=2,
        breaker_threshold=3,
        breaker_cooldown_chunks=4,
        seed=SEED,
    )
    return fleet.run(list(requests))


print(f"{len(requests)} requests against 3 workers, fleet adversary armed\n")
result = drill()
summ = result.summary()
for key in (
    "n_requests",
    "n_completed",
    "n_shed",
    "n_deadline_exceeded",
    "fleet_worker_crashes",
    "fleet_worker_restarts",
    "fleet_redispatches",
    "fleet_stale_completions_fenced",
):
    print(f"  {key:<32} {summ.get(key, result.telemetry.counter(key)):g}")

sup = result.fleet["supervisor"]
print(
    f"\nSupervision: {sup['deaths']} deaths, {sup['restarts']} restarts, "
    f"{sup['n_stopped']} workers permanently stopped"
)
for w in sup["workers"]:
    story = " -> ".join(t["to"] for t in w["transitions"]) or "healthy"
    print(f"  worker {w['worker_id']}: {story}")
rungs = result.fleet["router"]["rung_transitions"]
ladder = " -> ".join(t["to"] for t in rungs) or "(stayed normal)"
print(f"Fleet rung: normal -> {ladder}" if rungs else f"Fleet rung: {ladder}")

print("\nPer-request recovery:")
for tm in result.requests:
    print(
        f"  request {tm.request_id:<3} {tm.outcome:<18} "
        f"retries={tm.retries} faults={tm.faults_injected}"
    )

breaches = check_recovery_invariants(result)
assert not breaches, breaches
assert drill().summary() == summ, "same seed must reproduce the run"
got = sorted(tm.request_id for tm in result.requests)
want = sorted(r.request_id for r in requests)
assert got == want, "every submitted request must have exactly one record"
print(
    "\nWorkers crashed, stalled, and went silent; the supervisor restarted\n"
    "or replaced every one, no request was lost or delivered twice, and a\n"
    "second run with the same seed reproduced the story bit for bit."
)
