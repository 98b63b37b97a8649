"""Chaos drill: serve a request stream while an adversary injects faults.

The near-lossless claim is only as good as the runtime that enforces it,
so this example attacks the serving engine with the repo's one chaos
scenario (`repro.serving.chaos_scenario`, the same one `sampleattn chaos`,
the memory and fleet drills and the packed-parity test serve) -- transient
attend failures mid-chunk, plan-cache corruption (including structurally
valid plans that lie about their CRA coverage), latency spikes, persistent
stragglers, slow chunks, and a synchronized admission burst -- and shows
the recovery machinery absorbing all of it: bounded retry with KV
rollback, the runtime CRA guard forcing dense fallback, the circuit
breaker, per-request deadlines, and the degradation ladder
(sparse -> widened -> dense -> shed).

Everything is seeded: running the drill twice produces bitwise-identical
telemetry, which is what lets the CI chaos job assert recovery instead of
eyeballing it.

Run:  PYTHONPATH=src python examples/chaos_drill.py        (~10 s)
"""

from repro.model import build_model
from repro.serving import (
    ServingEngine,
    chaos_scenario,
    check_recovery_invariants,
)

SEED = 0

# Workload, adversary, engine and front-door configuration in one record:
# a Poisson stream of 8K/16K prompts plus a 16K burst at t = 0.25 s; a
# retry budget of 2 against at most 2 transient failures per chunk; a
# six-deep shed-oldest queue; a 4 s deadline; the deterministic roofline
# clock.
scenario = chaos_scenario(SEED)
model = build_model("glm-mini")


def drill():
    engine = ServingEngine(model, **scenario.serving_kwargs())
    return engine.run(list(scenario.requests))


print(f"{len(scenario.requests)} requests (burst included), injector armed:")
armed = {
    k: v
    for k, v in scenario.injector.as_dict().items()
    if k.startswith("p_") and v
}
print("  " + ", ".join(f"{k}={v}" for k, v in armed.items()) + "\n")
result = drill()
summ = result.summary()
for key in (
    "n_requests",
    "n_completed",
    "n_shed",
    "n_deadline_exceeded",
    "faults_injected",
    "chunk_retries",
    "cra_guard_violations",
    "plan_fallbacks",
    "circuit_breaker_trips",
    "n_degraded",
):
    print(f"  {key:<24} {summ[key]:g}")

print("\nPer-request recovery:")
for tm in result.requests:
    ladder = " -> ".join(tr["to"] for tr in tm.transitions) or "-"
    print(
        f"  request {tm.request_id:<3} {tm.outcome:<10} "
        f"level={tm.degradation_level:<8} retries={tm.retries} "
        f"faults={tm.faults_injected} ladder={ladder}"
    )

breaches = check_recovery_invariants(result)
assert not breaches, breaches
assert drill().summary() == summ, "same seed must reproduce the run"
print(
    "\nAll requests terminal, every CRA-guard violation answered by a dense\n"
    "fallback, and a second run with the same seed reproduced the summary\n"
    "bit for bit."
)
