"""Robustness drills: ``sampleattn chaos``, ``memory`` and ``fleet``.

The paper's near-lossless guarantee (``CRA >= alpha``) is a *runtime*
property here -- the CRA guard, dense fallback, degradation ladder and
breakers keep it true under faults -- and these drills are its standing
proof.  Each one serves :func:`~repro.serving.faults.chaos_scenario`, or a
variant stated as a diff against it, and *asserts* the recovery claims
instead of just reporting them; any gate failure raises
:class:`~repro.errors.ReproError`, a non-zero CLI exit.

One protocol, :func:`serve_twice`, sits under every gate that serves the
scenario: run it twice from the same seed, require byte-identical
canonical results, exactly one record per submitted request, every
recovery invariant, and zero leaked arena blocks.

* **chaos** -- the scenario through the single engine *and* a 2-worker
  fleet: the fleet must preserve single-engine chaos semantics.
* **memory** -- the paged-KV subsystem: copy-on-write prefix sharing fits
  at least :data:`CAPACITY_GAIN_FLOOR` times the contiguous session count
  in one fixed arena; the paged engine adopts shared prefixes and matches
  the contiguous backend's outcomes under dense attention; the scenario
  plus arena-exhaustion bursts on a deliberately tight arena recovers.
* **fleet** -- the supervised multi-worker layer: the scenario plus worker
  crashes, stalls and heartbeat loss sees at least :data:`CRASH_FLOOR`
  crashes recovered with zero lost and zero duplicated requests; plan
  poison sticky-routed onto one worker trips only that worker's breaker;
  under latency-only faults the fleet reproduces the single engine's
  per-request semantics exactly.

``memory`` and ``fleet`` write their report to ``MEMORY_drill.json`` /
``FLEET_drill.json`` (``$SAMPLEATTN_MEMDRILL_OUT`` /
``$SAMPLEATTN_FLEETDRILL_OUT`` override the path, ``""`` disables
writing) so CI can upload it as an artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ArenaExhaustedError, ReproError
from ..memory import KVArena, PagedLayerKVCache, PrefixSharingRegistry
from ..model import build_model
from ..serving import (
    FaultInjector,
    FleetEngine,
    Request,
    ServingEngine,
    chaos_scenario,
    check_recovery_invariants,
    poisson_workload,
)
from .scale import resolve_scale
from .tables import Table

__all__ = [
    "CAPACITY_GAIN_FLOOR",
    "CRASH_FLOOR",
    "serve_twice",
    "memory_adversary",
    "fleet_adversary",
    "session_capacity",
    "run_chaos",
    "run_memory_drill",
    "run_memory",
    "run_fleet_drill",
    "run_fleet",
]

#: The memory drill fails below this paged-over-contiguous capacity gain.
CAPACITY_GAIN_FLOOR = 2.0
#: The fleet drill fails below this many injected-and-recovered crashes.
CRASH_FLOOR = 3

_MODEL = "glm-mini"
_FLEET_WORKERS = 3


# ---------------------------------------------------------------------------
# The shared protocol.
# ---------------------------------------------------------------------------


def _canonical(result) -> str:
    """The bytes two same-seed runs must agree on: the whole ``to_dict()``
    except an engine's wall-clock stage profile, which by design lives
    outside the deterministic record."""
    record = result.to_dict()
    record.pop("stages", None)
    return json.dumps(record, sort_keys=True)


def _leaked_blocks(result) -> int:
    """Arena blocks still held after a run (0 on the contiguous backend)."""
    arena = getattr(result, "memory", {}).get("arena", {})
    return int(arena.get("blocks_in_use", 0))


def serve_twice(name: str, serve, requests):
    """Serve ``requests`` twice via ``serve()`` and hold the run to the
    drill protocol; returns the first run's result.

    Raises :class:`~repro.errors.ReproError` when the two runs differ in
    their canonical bytes, a submitted request has no record (or an
    unknown one appears), a recovery invariant is breached, or the arena
    still holds blocks.
    """
    result, repeat = serve(), serve()
    if _canonical(result) != _canonical(repeat):
        raise ReproError(
            f"{name} not deterministic: same seed, different results"
        )
    want = sorted(r.request_id for r in requests)
    got = sorted(tm.request_id for tm in result.requests)
    if got != want:
        raise ReproError(
            f"{name} lost or invented requests: {len(got)} records for "
            f"{len(want)} submitted"
        )
    breaches = check_recovery_invariants(result)
    if breaches:
        raise ReproError(
            f"{name} breached recovery invariants:\n  "
            + "\n  ".join(breaches)
        )
    leaked = _leaked_blocks(result)
    if leaked:
        raise ReproError(f"{name} leaked {leaked} arena blocks")
    return result


def _counters(result, keys) -> dict:
    summ = result.summary()
    return {
        k: int(summ[k] if k in summ else result.telemetry.counter(k))
        for k in keys
    }


# ---------------------------------------------------------------------------
# Reports: one writer, one renderer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Drill:
    """What distinguishes one JSON-reporting drill from the other."""

    schema: str
    out_env: str
    out_default: str
    header: dict
    #: ``(report key, gate(model, seed, quick) -> dict, table title)``
    gates: tuple


def _run(drill: _Drill, scale, seed: int, out_path) -> tuple[dict, str]:
    """Run every gate; write the report; return it and the path written
    (``""`` when writing is disabled)."""
    quick = resolve_scale(scale).name == "quick"
    model = build_model(_MODEL)
    report = {
        "schema": drill.schema,
        "scale": "quick" if quick else "full",
        "seed": seed,
        **drill.header,
    }
    for key, gate, _ in drill.gates:
        report[key] = gate(model, seed, quick)
    if out_path is None:
        out_path = os.environ.get(drill.out_env, drill.out_default)
    if out_path:
        Path(out_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report, str(out_path)


def _rows(section, prefix: str = ""):
    """Flatten one report section into ``(dotted key, leaf)`` rows."""
    items = section.items() if isinstance(section, dict) else enumerate(section)
    for key, value in items:
        nested = isinstance(value, dict) or (
            isinstance(value, list) and value and isinstance(value[0], dict)
        )
        if nested:
            yield from _rows(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _render(drill: _Drill, report: dict, written: str) -> list[Table]:
    """One table per gate, every leaf of its report section a row."""
    tables = []
    for key, _, title in drill.gates:
        table = Table(title, ["metric", "value"])
        for name, value in _rows(report[key]):
            if isinstance(value, list):
                value = ", ".join(map(str, value))
            table.add_row(name, value)
        tables.append(table)
    tables[-1].notes = (
        f"every gate held; JSON written to {written}"
        if written
        else "every gate held; JSON not written"
    )
    return tables


# ---------------------------------------------------------------------------
# chaos: the scenario through the single engine and a 2-worker fleet.
# ---------------------------------------------------------------------------

_CHAOS_COUNTERS = (
    "n_requests",
    "n_completed",
    "n_rejected",
    "n_shed",
    "n_deadline_exceeded",
    "n_degraded",
    "faults_injected",
    "chunk_retries",
    "cra_guard_violations",
    "plan_fallbacks",
    "circuit_breaker_trips",
    "breaker_dense_chunks",
)


def run_chaos(scale="quick", seed: int = 0) -> list[Table]:
    """``sampleattn chaos``: serve the scenario under active fault
    injection and *assert* the recovery guarantees.

    The injector fires transient attend failures, plan-cache corruption,
    latency spikes, stragglers and slow chunks, and the workload carries a
    synchronized admission burst.  The identical workload, adversary and
    admission semantics are served through a single engine and then
    through a 2-worker :class:`~repro.serving.fleet.FleetEngine`; each
    must pass :func:`serve_twice`.
    """
    scenario = chaos_scenario(seed, quick=resolve_scale(scale).name == "quick")
    model = build_model(_MODEL)
    kwargs = scenario.serving_kwargs()
    tables = []
    for label, make in (
        ("single engine", lambda: ServingEngine(model, **kwargs)),
        ("2-worker fleet", lambda: FleetEngine(model, n_workers=2, **kwargs)),
    ):
        result = serve_twice(
            f"chaos drill ({label})",
            lambda: make().run(list(scenario.requests)),
            scenario.requests,
        )
        tables += _chaos_tables(result, label, scenario.injector)
    return tables


def _chaos_tables(result, label: str, injector: FaultInjector) -> list[Table]:
    summ = result.summary()
    t1 = Table(
        f"Chaos drill survived ({_MODEL}, {label}, seed={injector.seed}): "
        "fault and recovery counters (deterministic, bitwise-identical "
        "across runs)",
        ["counter", "value"],
        notes=(
            "injector: "
            + ", ".join(f"{k}={v}" for k, v in injector.as_dict().items())
        ),
    )
    for key in _CHAOS_COUNTERS:
        v = summ[key]
        t1.add_row(key, int(v) if float(v).is_integer() else round(v, 4))

    t2 = Table(
        "Per-request recovery audit",
        [
            "request_id",
            "outcome",
            "level",
            "retries",
            "faults",
            "cra_violations",
            "fallbacks",
            "transitions",
        ],
        notes="every request terminal; cra_violations <= fallbacks on "
        "completed requests; ladder transitions strictly escalating",
    )
    for tm in result.requests:
        t2.add_row(
            tm.request_id,
            tm.outcome,
            tm.degradation_level,
            tm.retries,
            tm.faults_injected,
            tm.cra_violations,
            tm.plan_fallbacks,
            " -> ".join(tr["to"] for tr in tm.transitions) or "-",
        )
    return [t1, t2]


# ---------------------------------------------------------------------------
# memory gate 1: allocator-level session capacity under a fixed arena budget.
# ---------------------------------------------------------------------------


def session_capacity(
    *,
    arena_blocks: int = 256,
    n_layers: int = 4,
    n_kv_heads: int = 2,
    d_head: int = 16,
    block_tokens: int = 16,
    prefix_tokens: int = 192,
    suffix_tokens: int = 16,
    seed: int = 0,
) -> dict:
    """Count resident shared-prefix sessions until arena exhaustion.

    Both arms use the same arena budget and the same session shape (a
    common ``prefix_tokens`` prompt plus a private ``suffix_tokens``
    tail across ``n_layers`` layers); the baseline arm simply never
    shares, so every session pays for the prefix again.  Deterministic:
    the counts depend only on the geometry.
    """
    rng = np.random.default_rng(seed)
    total = prefix_tokens + suffix_tokens
    shared_tokens = rng.integers(0, 1024, size=prefix_tokens, dtype=np.int64)

    def kv(n: int) -> tuple[np.ndarray, np.ndarray]:
        k = rng.standard_normal((n_kv_heads, n, d_head), dtype=np.float32)
        v = rng.standard_normal((n_kv_heads, n, d_head), dtype=np.float32)
        return k, v

    def fill(cache: PagedLayerKVCache, n: int, start: int) -> None:
        k, v = kv(n)
        cache.append(k, v, np.arange(start, start + n, dtype=np.int64))

    # --- baseline: private KV per session, no sharing -------------------
    arena = KVArena(arena_blocks, n_kv_heads, block_tokens, d_head)
    contiguous_sessions = 0
    resident: list[list[PagedLayerKVCache]] = []
    try:
        while True:
            caches = [PagedLayerKVCache(arena) for _ in range(n_layers)]
            for c in caches:
                fill(c, total, 0)
            resident.append(caches)
            contiguous_sessions += 1
    except ArenaExhaustedError:
        pass
    for caches in resident:
        for c in caches:
            c.release()

    # --- paged + copy-on-write sharing ----------------------------------
    arena = KVArena(arena_blocks, n_kv_heads, block_tokens, d_head)
    registry = PrefixSharingRegistry(arena)
    donor = [PagedLayerKVCache(arena) for _ in range(n_layers)]
    for c in donor:
        fill(c, prefix_tokens, 0)
    registered = registry.register(shared_tokens, donor)
    for c in donor:
        c.release()  # the registry's refs keep the prefix alive

    paged_sessions = 0
    resident = []
    try:
        while True:
            found = registry.lookup(shared_tokens)
            if found is None:
                raise ReproError(
                    "sharing registry lost a registered prefix mid-drill"
                )
            blocks, positions = found
            caches = []
            for layer in range(n_layers):
                c = PagedLayerKVCache(arena)
                c.adopt_shared(list(blocks[layer]), np.asarray(positions))
                caches.append(c)
            for c in caches:
                fill(c, suffix_tokens, prefix_tokens)
            resident.append(caches)
            paged_sessions += 1
    except ArenaExhaustedError:
        pass
    shared_blocks = arena.shared_blocks
    for caches in resident:
        for c in caches:
            c.release()
    registry.clear()

    gain = paged_sessions / max(contiguous_sessions, 1)
    return {
        "arena_blocks": arena_blocks,
        "arena_bytes": arena.bytes_total,
        "n_layers": n_layers,
        "block_tokens": block_tokens,
        "prefix_tokens": prefix_tokens,
        "suffix_tokens": suffix_tokens,
        "registered_prefix_blocks": registered,
        "shared_blocks_at_peak": shared_blocks,
        "contiguous_sessions": contiguous_sessions,
        "paged_sessions": paged_sessions,
        "capacity_gain": round(gain, 2),
    }


def _capacity_gate(model, seed: int, quick: bool) -> dict:
    capacity = session_capacity(seed=seed)
    if capacity["capacity_gain"] < CAPACITY_GAIN_FLOOR:
        raise ReproError(
            "prefix sharing fits only "
            f"{capacity['capacity_gain']}x the contiguous session count "
            f"(floor {CAPACITY_GAIN_FLOOR}x): {capacity}"
        )
    return capacity


# ---------------------------------------------------------------------------
# memory gate 2: engine-level prefix sharing on a shared-prefix workload.
# ---------------------------------------------------------------------------


def _shared_prefix_builder(model, seed: int, unique_tail: int = 64):
    """A ``prompt_builder`` whose prompts share everything but the tail."""
    vocab = model.config.vocab_size

    def build(request, executed_len: int) -> np.ndarray:
        shared_len = max(executed_len - unique_tail, 0)
        shared = np.random.default_rng((seed, 0xF1E1D)).integers(
            0, vocab, size=shared_len, dtype=np.int64
        )
        tail = np.random.default_rng((seed, request.request_id)).integers(
            0, vocab, size=executed_len - shared_len, dtype=np.int64
        )
        return np.concatenate([shared, tail])

    return build


def _engine_sharing_gate(model, seed: int, quick: bool) -> dict:
    requests = poisson_workload(
        np.random.default_rng(seed),
        rate_per_s=2.0,
        duration_s=3.0 if quick else 6.0,
        prompt_lens=(8192,),
        decode_tokens=2,
    )
    builder = _shared_prefix_builder(model, seed)
    runs = {}
    for backend in ("contiguous", "paged"):
        engine = ServingEngine(
            model,
            method="flash",  # dense attention: chunk-boundary invariant
            chunk_size=96,
            length_scale=32,
            billing="roofline",
            kv_backend=backend,
            block_tokens=32,
            prompt_builder=builder,
            seed=seed,
        )
        runs[backend] = engine.run(list(requests))

    paged, contig = runs["paged"].summary(), runs["contiguous"].summary()
    if paged["n_completed"] != contig["n_completed"] or paged["n_completed"] == 0:
        raise ReproError(
            "paged engine completion diverged from contiguous on the "
            f"shared-prefix workload: {paged['n_completed']} vs "
            f"{contig['n_completed']}"
        )
    for p, c in zip(runs["paged"].requests, runs["contiguous"].requests):
        if p.outcome != c.outcome:
            raise ReproError(
                f"request {p.request_id} outcome diverged under paging: "
                f"{p.outcome} vs {c.outcome}"
            )
    if paged["prefix_cache_hits"] < 1:
        raise ReproError(
            "shared-prefix workload produced no prefix-cache adoption"
        )
    leaked = _leaked_blocks(runs["paged"])
    if leaked:
        raise ReproError(f"arena leak after run: {leaked} blocks")

    mem = runs["paged"].memory
    bpt = 2 * model.config.n_kv_heads * model.config.d_head * 4  # bytes/token
    contiguous_bytes = sum(
        tm.executed_len * model.config.n_layers * bpt
        for tm in runs["contiguous"].requests
        if tm.executed_len
    )
    return {
        "n_requests": int(paged["n_requests"]),
        "n_completed": int(paged["n_completed"]),
        "prefix_cache_hits": int(paged["prefix_cache_hits"]),
        "prefix_tokens_reused": int(paged["prefix_tokens_reused"]),
        "arena": mem["arena"],
        "sharing": mem["sharing"],
        "aggregate_contiguous_kv_bytes": int(contiguous_bytes),
        "arena_peak_bytes": int(
            mem["arena"]["peak_blocks_in_use"]
            * (mem["arena"]["bytes_total"] // mem["arena"]["n_blocks"])
        ),
    }


# ---------------------------------------------------------------------------
# memory gate 3: the scenario on the paged engine, arena squeezed.
# ---------------------------------------------------------------------------


def memory_adversary(base: FaultInjector) -> FaultInjector:
    """The memory drill's adversary: the scenario's, minus slow chunks,
    plus arena-exhaustion bursts reserving half the free blocks."""
    return base.replace(
        p_slow_chunk=0.0, p_arena_exhaustion=0.2, exhaustion_fraction=0.5
    )


def _pressure_recovery_gate(model, seed: int, quick: bool) -> dict:
    scenario = chaos_scenario(seed, quick=quick)
    bt = 32
    # Tight arena: about 1.5x one max-size request, far below the
    # auto-sized budget -- exhaustion and the pressure ladder must fire.
    longest = max(r.prompt_len for r in scenario.requests)
    need_one = model.config.n_layers * (
        -(-(longest // scenario.engine_kwargs["length_scale"] + 2 + 1) // bt)
    )
    arena_blocks = need_one + need_one // 2
    kwargs = dict(
        scenario.serving_kwargs(),
        fault_injector=memory_adversary(scenario.injector),
        kv_backend="paged",
        arena_blocks=arena_blocks,
        block_tokens=bt,
    )
    result = serve_twice(
        "paged fault drill",
        lambda: ServingEngine(model, **kwargs).run(list(scenario.requests)),
        scenario.requests,
    )
    return {
        "arena_blocks": arena_blocks,
        "counters": _counters(
            result,
            (
                "n_requests",
                "n_completed",
                "n_rejected",
                "n_shed",
                "faults_injected",
                "chunk_retries",
                "arena_exhaustion_events",
                "memory_pressure_relief",
                "kv_evictions",
                "memory_sheds",
                "memory_breaker_trips",
                "memory_breaker_rejections",
                "circuit_breaker_trips",
            ),
        ),
        "pressure": result.memory["pressure"],
        "arena": result.memory["arena"],
    }


_MEMORY = _Drill(
    schema="sampleattn-memory-drill/v1",
    out_env="SAMPLEATTN_MEMDRILL_OUT",
    out_default="MEMORY_drill.json",
    header={"capacity_gain_floor": CAPACITY_GAIN_FLOOR},
    gates=(
        (
            "capacity",
            _capacity_gate,
            "Memory drill gate 1: shared-prefix session capacity in one "
            f"arena (floor {CAPACITY_GAIN_FLOOR}x)",
        ),
        (
            "engine_sharing",
            _engine_sharing_gate,
            "Memory drill gate 2: paged engine on a shared-prefix workload "
            "(dense attention, outcomes matched to contiguous; arena peak "
            "vs the KV bytes the contiguous backend materialised)",
        ),
        (
            "pressure_recovery",
            _pressure_recovery_gate,
            "Memory drill gate 3: the chaos scenario on the paged engine "
            "(tight arena, exhaustion bursts; invariants held, bitwise "
            "deterministic, zero blocks leaked)",
        ),
    ),
)


def run_memory_drill(scale="quick", seed: int = 0, *, out_path=None) -> dict:
    """Run the three memory gates; write ``MEMORY_drill.json``; return
    the report."""
    return _run(_MEMORY, scale, seed, out_path)[0]


def run_memory(scale="quick", seed: int = 0) -> list[Table]:
    """``sampleattn memory``: run the drill and render its report."""
    return _render(_MEMORY, *_run(_MEMORY, scale, seed, None))


# ---------------------------------------------------------------------------
# fleet gate 1: crash recovery on the scenario, worker faults active.
# ---------------------------------------------------------------------------


def fleet_adversary(base: FaultInjector) -> FaultInjector:
    """The fleet drill's adversary: the scenario's, plus the three
    worker fault kinds (crash, stall, heartbeat loss)."""
    return base.replace(
        p_worker_crash=0.25, p_worker_stall=0.1, p_heartbeat_loss=0.05
    )


def _crash_recovery_gate(model, seed: int, quick: bool) -> dict:
    scenario = chaos_scenario(seed, quick=quick)
    kwargs = dict(
        scenario.serving_kwargs(),
        fault_injector=fleet_adversary(scenario.injector),
        n_workers=_FLEET_WORKERS,
        max_redispatch=2,
        heartbeat_interval_s=0.02,
        restart_backoff_s=0.02,
        max_restarts=3,
    )
    result = serve_twice(
        "fleet drill",
        lambda: FleetEngine(model, **kwargs).run(list(scenario.requests)),
        scenario.requests,
    )

    crashes = int(result.telemetry.counter("fleet_worker_crashes"))
    if crashes < CRASH_FLOOR:
        raise ReproError(
            f"fleet drill injected only {crashes} worker crashes "
            f"(floor {CRASH_FLOOR}); retune the injector"
        )
    # zero duplicated: outcome counters agree with per-request records,
    # so no request completed (or shed) more than once
    for outcome in ("completed", "rejected", "shed", "deadline_exceeded"):
        records = sum(1 for tm in result.requests if tm.outcome == outcome)
        counted = int(result.telemetry.counter(outcome))
        if records != counted:
            raise ReproError(
                f"fleet drill double-counted {outcome!r}: {counted} "
                f"counter ticks for {records} requests"
            )
    deadline_s = scenario.deadline_s
    for tm in result.requests:
        if tm.outcome == "completed" and tm.finish - tm.arrival > deadline_s:
            raise ReproError(
                f"request {tm.request_id} completed past its deadline: "
                f"{tm.finish - tm.arrival:.3f}s > {deadline_s}s"
            )

    sup = result.fleet["supervisor"]
    router = result.fleet["router"]
    return {
        "deadline_s": deadline_s,
        "counters": _counters(
            result,
            (
                "n_requests",
                "n_completed",
                "n_rejected",
                "n_shed",
                "n_deadline_exceeded",
                "faults_injected",
                "chunk_retries",
                "circuit_breaker_trips",
                "fleet_worker_crashes",
                "fleet_redispatches",
                "fleet_redispatch_exhausted",
                "fleet_worker_restarts",
                "fleet_heartbeat_deaths",
                "fleet_stale_completions_fenced",
                "fault_worker_stall",
                "fault_heartbeat_loss",
            ),
        ),
        "supervisor": {
            "deaths": sup["deaths"],
            "restarts": sup["restarts"],
            "n_stopped": sup["n_stopped"],
        },
        "router": {
            "rung": router["rung"],
            "rung_transitions": len(router["rung_transitions"]),
        },
        "workers": [
            {
                "worker_id": w["worker_id"],
                "executions": w["executions"],
                "delivered": w["delivered"],
            }
            for w in result.workers
        ],
    }


# ---------------------------------------------------------------------------
# fleet gate 2: per-worker breaker isolation under sticky-routed poison.
# ---------------------------------------------------------------------------


class _SemanticPoison(FaultInjector):
    """Keyed like ``plan_poison`` but always the semantic corruption:
    structural poisons die in cache validation before ever reaching the
    CRA guard, and the isolation gate is about guard-driven breaker
    trips."""

    def poison_mode(self, rid, chunk):
        mode = super().poison_mode(rid, chunk)
        return "share_undercut" if mode is not None else None


def _breaker_isolation_gate(model, seed: int, quick: bool) -> dict:
    injector = _SemanticPoison(seed, p_plan_poison=0.15)
    n = 9 if quick else 15
    requests = [
        Request(request_id=i, arrival=1.0 * i, prompt_len=8192,
                decode_tokens=2)
        for i in range(n)
    ]
    kwargs = dict(
        chaos_scenario(seed, quick=quick).engine_kwargs,
        degrade_after=100,  # keep requests on the sparse rung
        breaker_threshold=1,  # any poisoned chunk trips
    )
    # generous bound on chunk indices one request can consult
    n_chunks = 8192 // kwargs["length_scale"] // kwargs["chunk_size"] + 8

    # Ground truth from the injector's own keyed streams: which requests
    # will poison at least one chunk.  Sticky-route those to one session.
    hot = {
        r.request_id
        for r in requests
        if any(
            injector.poison_mode(r.request_id, c) is not None
            for c in range(n_chunks)
        )
    }
    if not hot or len(hot) == len(requests):
        raise ReproError(
            "breaker isolation drill needs a mix of poisoned and clean "
            f"requests; got {len(hot)}/{len(requests)} poisoned"
        )

    fleet = FleetEngine(
        model,
        n_workers=_FLEET_WORKERS,
        routing_policy="sticky",
        session_of=lambda r: (
            "hot" if r.request_id in hot else f"clean-{r.request_id}"
        ),
        max_queue=n,
        fault_injector=injector,
        **kwargs,
    )
    result = fleet.run(list(requests))
    if not all(tm.outcome == "completed" for tm in result.requests):
        raise ReproError(
            "breaker isolation drill expected every request to complete"
        )

    trips = [
        int(w["counters"].get("circuit_breaker_trips", 0))
        for w in result.workers
    ]
    dense = [
        int(w["counters"].get("breaker_dense_chunks", 0))
        for w in result.workers
    ]
    tripped = [i for i, t in enumerate(trips) if t > 0]
    if len(tripped) != 1:
        raise ReproError(
            f"poison was sticky-routed to one worker but {len(tripped)} "
            f"workers tripped their breaker: {trips}"
        )
    hot_worker = tripped[0]
    for wid in range(_FLEET_WORKERS):
        if wid != hot_worker and dense[wid] > 0:
            raise ReproError(
                f"clean worker {wid} served {dense[wid]} breaker-forced "
                "dense chunks: per-worker degradation leaked fleet-wide"
            )
    return {
        "n_requests": len(requests),
        "n_poisoned_requests": len(hot),
        "hot_worker": hot_worker,
        "trips_per_worker": trips,
        "breaker_dense_chunks_per_worker": dense,
    }


# ---------------------------------------------------------------------------
# fleet gate 3: per-request parity with the single engine.
# ---------------------------------------------------------------------------

#: Per-request fields that must agree between fleet and single engine.
_PARITY_FIELDS = (
    "outcome",
    "executed_len",
    "generated",
    "retries",
    "cra_violations",
    "plan_hits",
    "plan_misses",
    "plan_fallbacks",
    "faults_injected",
    "kept_kv_ratios",
)


def _parity_gate(model, seed: int, quick: bool) -> dict:
    # Latency-only adversary: stretches the clock, never changes results.
    injector = FaultInjector(
        seed,
        p_latency_spike=0.3,
        spike_multiplier=6.0,
        p_straggler=0.25,
        straggler_multiplier=3.0,
        p_slow_chunk=0.25,
        slow_chunk_multiplier=4.0,
    )
    n = 8 if quick else 14
    requests = [
        Request(request_id=i, arrival=0.05 * i, prompt_len=8192,
                decode_tokens=2)
        for i in range(n)
    ]
    kwargs = dict(
        chaos_scenario(seed, quick=quick).engine_kwargs,
        max_queue=n,
        fault_injector=injector,
    )
    single = ServingEngine(model, **kwargs).run(list(requests))
    fleet = FleetEngine(model, n_workers=_FLEET_WORKERS, **kwargs).run(
        list(requests)
    )

    by_id = {tm.request_id: tm for tm in fleet.requests}
    mismatches = []
    for s_tm in single.requests:
        f_tm = by_id.get(s_tm.request_id)
        if f_tm is None:
            mismatches.append(f"request {s_tm.request_id} missing from fleet")
            continue
        for name in _PARITY_FIELDS:
            if getattr(s_tm, name) != getattr(f_tm, name):
                mismatches.append(
                    f"request {s_tm.request_id} {name}: single="
                    f"{getattr(s_tm, name)!r} fleet={getattr(f_tm, name)!r}"
                )
    if mismatches:
        raise ReproError(
            "fleet diverged from single-engine semantics:\n  "
            + "\n  ".join(mismatches[:10])
        )
    return {
        "n_requests": n,
        "parity_fields": list(_PARITY_FIELDS),
        "n_completed_single": int(single.summary()["n_completed"]),
        "n_completed_fleet": int(fleet.summary()["n_completed"]),
    }


_FLEET = _Drill(
    schema="sampleattn-fleet-drill/v1",
    out_env="SAMPLEATTN_FLEETDRILL_OUT",
    out_default="FLEET_drill.json",
    header={"n_workers": _FLEET_WORKERS, "crash_floor": CRASH_FLOOR},
    gates=(
        (
            "crash_recovery",
            _crash_recovery_gate,
            f"Fleet drill gate 1: crash recovery on a {_FLEET_WORKERS}-worker "
            f"fleet (>= {CRASH_FLOOR} crashes, zero lost, zero duplicated, "
            "bitwise deterministic)",
        ),
        (
            "breaker_isolation",
            _breaker_isolation_gate,
            "Fleet drill gate 2: breaker isolation under sticky-routed "
            "poison (one hot worker trips, clean workers untouched)",
        ),
        (
            "single_engine_parity",
            _parity_gate,
            "Fleet drill gate 3: per-request parity with the single engine "
            "(latency-only faults)",
        ),
    ),
)


def run_fleet_drill(scale="quick", seed: int = 0, *, out_path=None) -> dict:
    """Run the three fleet gates; write ``FLEET_drill.json``; return the
    report."""
    return _run(_FLEET, scale, seed, out_path)[0]


def run_fleet(scale="quick", seed: int = 0) -> list[Table]:
    """``sampleattn fleet``: run the drill and render its report."""
    return _render(_FLEET, *_run(_FLEET, scale, seed, None))
