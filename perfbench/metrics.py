"""Metric tables and the functions that compute them from pass records.

The tables are the single source for ``BENCHMARK.json`` (a test holds the two
equal) and for the README's interaction map: each per-layer metric names its
layer and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import hashlib
import statistics

from perfbench import adapter

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("ttft_p50_s", "s", "lower", 0.25),
    ("tpot_p50_s", "s", "lower", 0.25),
    ("tokens_per_s", "1/s", "higher", 0.25),
    ("answer_score", "share", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better, layer, what it should move
PER_LAYER = (
    ("engine.run_s", "s", "lower", "serving.engine", "wall of engine.run in the traced pass"),
    ("engine.billed_s", "s", "lower", "serving.engine", "sum of chunk_seconds + decode_seconds"),
    ("engine.unbilled_share", "share", "lower", "serving.engine", "tokens_per_s everywhere; invisible to ttft/tpot; largest on serving_mix"),
    ("engine.self_share", "share", "lower", "serving.engine", "root self time / run: engine time no wrapped layer covers"),
    ("engine.ttft_p75_s", "s", "lower", "serving.engine", "tail of ttft_p50_s"),
    ("engine.tpot_p75_s", "s", "lower", "serving.engine", "tail of tpot_p50_s"),
    ("engine.failed_requests", "count", "lower", "serving.engine", "expected 0; any failure also fails the run"),
    ("engine.plan_fallbacks", "count", "lower", "serving.engine", "expected 0; non-zero raises ttft_p50_s via attention.flash"),
    ("engine.cra_violations", "count", "lower", "serving.engine", "expected 0"),
    ("engine.chunk_retries", "count", "lower", "serving.engine", "expected 0"),
    ("engine.degradation_transitions", "count", "lower", "serving.engine", "expected 0"),
    ("scheduler.queue_wait_p50_s", "s", "lower", "serving.scheduler", "ttft_p50_s on serving_mix"),
    ("scheduler.prefill_batch_occupancy", "req/dispatch", "higher", "serving.scheduler", "tokens_per_s on prefill_long, serving_mix"),
    ("scheduler.decode_batch_occupancy", "req/dispatch", "higher", "serving.scheduler", "tokens_per_s up and tpot_p50_s up on decode_heavy"),
    ("scheduler.calls", "count", "lower", "serving.scheduler", "select/rotate/offer calls"),
    ("scheduler.s", "s", "lower", "serving.scheduler", "tokens_per_s (unbilled engine time)"),
    ("plan_cache.hit_share", "share", "higher", "serving.plan_cache", "more hits: ttft_p50_s down AND answer_score down on prefill_long, serving_mix"),
    ("plan_cache.calls", "count", "lower", "serving.plan_cache", "get + put calls"),
    ("plan_cache.s", "s", "lower", "serving.plan_cache", "ttft_p50_s on prefill_long"),
    ("core.plan_s", "s", "lower", "core", "ttft_p50_s on prefill_long (at most core.plan_share of it)"),
    ("core.plan_calls", "count", "lower", "core", "provider .plan calls = plan-cache misses"),
    ("core.sample_s", "s", "lower", "core", "stage 1, inside core.plan_s"),
    ("core.filter_s", "s", "lower", "core", "stage 2, inside core.plan_s"),
    ("core.mask_build_s", "s", "lower", "core", "ttft_p50_s on prefill_long"),
    ("core.plan_reuse_s", "s", "lower", "core", "SparsePlan.extended + validate"),
    ("core.plan_share", "share", "lower", "core", "core.plan_s / engine.run_s"),
    ("core.kept_kv_ratio_mean", "share", "lower", "core", "lower: ttft_p50_s down, answer_score is the guard"),
    ("core.tile_density", "share", "lower", "core", "visited / causal tiles; lower: ttft_p50_s down on prefill_long, answer_score is the guard"),
    ("packed.prefill_s", "s", "lower", "attention.packed", "ttft_p50_s on prefill_long, serving_mix"),
    ("packed.prefill_calls", "count", "lower", "attention.packed", "one per (layer, batch step)"),
    ("packed.decode_s", "s", "lower", "attention.packed", "tpot_p50_s on decode_heavy"),
    ("packed.decode_calls", "count", "lower", "attention.packed", "one per (layer, decode step)"),
    ("packed.decode_kv_tokens", "count", "lower", "attention.packed", "KV rows read by decode attention"),
    ("packed.gemm_calls", "count", "lower", "attention.packed", "GEMMs issued by packed prefill"),
    ("packed.tiles_visited", "count", "lower", "attention.packed", "ttft_p50_s on prefill_long"),
    ("packed.pattern_hit_share", "share", "higher", "attention.packed", "head patterns reused within a dispatch"),
    ("packed.prefill_flops", "flop", "lower", "attention.packed", "computed: 4 * d_head * block^2 per visited tile"),
    ("packed.prefill_bytes", "B", "lower", "attention.packed", "computed: K/V tile reads + q/out rows, float32"),
    ("flash.s", "s", "lower", "attention.flash", "ttft_p50_s on prefill_long_dense"),
    ("flash.calls", "count", "lower", "attention.flash", "expected 0 on the sparse workloads"),
    ("model.prefill_s", "s", "lower", "model.transformer", "ttft_p50_s on both prefill workloads"),
    ("model.prefill_self_s", "s", "lower", "model.transformer", "embed, projections, RoPE, MLP, logits: both prefill workloads equally"),
    ("model.decode_s", "s", "lower", "model.transformer", "tpot_p50_s on decode_heavy"),
    ("model.decode_self_s", "s", "lower", "model.transformer", "tpot_p50_s on decode_heavy"),
    ("kv.append_s", "s", "lower", "model.kv_cache+memory", "ttft_p50_s, tpot_p50_s"),
    ("kv.append_calls", "count", "lower", "model.kv_cache+memory", "KV appends"),
    ("memory.gather_s", "s", "lower", "model.kv_cache+memory", "tpot_p50_s on serving_mix"),
    ("memory.gather_tokens", "count", "lower", "model.kv_cache+memory", "tokens copied through the gather slab"),
    ("memory.viewed_tokens", "count", "higher", "model.kv_cache+memory", "tokens served zero-copy"),
    ("memory.prefix_lookup_s", "s", "lower", "model.kv_cache+memory", "ttft_p50_s on serving_mix"),
    ("memory.prefix_register_s", "s", "lower", "model.kv_cache+memory", "ttft_p50_s on serving_mix"),
    ("memory.prefix_hit_share", "share", "higher", "model.kv_cache+memory", "ttft_p50_s and tokens_per_s on serving_mix; 0 elsewhere"),
    ("memory.arena_peak_blocks", "count", "lower", "model.kv_cache+memory", "peak_rss_mb on serving_mix"),
    ("memory.arena_peak_utilization", "share", "higher", "model.kv_cache+memory", "peak in use / reserved: peak_rss_mb on serving_mix"),
    ("memory.cow_forks", "count", "lower", "model.kv_cache+memory", "copy-on-write forks"),
    ("memory.kv_evictions", "count", "lower", "model.kv_cache+memory", "expected 0"),
    ("memory.sheds", "count", "lower", "model.kv_cache+memory", "expected 0"),
    ("memory.leaked_blocks", "count", "lower", "model.kv_cache+memory", "expected 0; non-zero fails the run"),
    ("perf.roofline_ttft_speedup", "x", "higher", "perf", "model prediction beside measured dense/sparse ttft_p50_s"),
    ("trace.overhead_share", "share", "lower", "benchmark", "traced wall / untraced wall - 1"),
    ("machine.gemm_probe_s", "s", "lower", "benchmark", "fixed GEMM loop before every pass: host drift"),
)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p75(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# ---------------------------------------------------------------------------
# Per-pass records
# ---------------------------------------------------------------------------


def pass_record(wave, served: dict) -> dict:
    """Everything later steps need from one served wave, as plain data."""
    requests = served["telemetry"]["requests"]
    decode_tokens = {r.request_id: r.decode_tokens for r in wave.requests}
    problems = []
    if len(requests) != len(wave.requests):
        problems.append(f"{len(wave.requests)} sent, {len(requests)} recorded")
    leaked = served["telemetry"]["counters"].get("arena_leaked_blocks", 0)
    if leaked:
        problems.append(f"{leaked:.0f} arena blocks leaked")
    failed = 0
    ttft, tpot, scores = [], [], []
    tokens = 0
    digest = hashlib.sha1()
    for r in sorted(requests, key=lambda r: r["request_id"]):
        rid = r["request_id"]
        done = r["outcome"] == "completed"
        if done and len(r["generated"]) != decode_tokens[rid]:
            problems.append(
                f"request {rid}: {len(r['generated'])} tokens, "
                f"expected {decode_tokens[rid]}"
            )
            done = False
        if not done:
            failed += 1
            scores.append(0.0)
            continue
        ttft.append(r["first_token"] - r["arrival"])
        tpot.append(r["decode_seconds"] / len(r["generated"]))
        tokens += r["executed_len"] + len(r["generated"])
        scores.append(adapter.score_answer(r["generated"], wave.answers[rid]))
        digest.update(repr((rid, r["generated"])).encode())
    return {
        "wall_s": served["wall_s"],
        "sent": len(wave.requests),
        "failed": failed,
        "problems": problems,
        "ttft_s": ttft,
        "tpot_s": tpot,
        "tokens_per_s": _ratio(tokens, served["wall_s"]),
        "scores": scores,
        "tokens_digest": digest.hexdigest(),
    }


def end_to_end(passes: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    """Run-level values: timings are medians over passes of the per-pass
    value, so one slow host window cannot carry a run; ``answer_score`` is
    the mean over every request of the workload (first pass of each wave)."""
    first = {p["wave"]: p for p in reversed(passes)}
    scores = [s for p in first.values() for s in p["scores"]]
    values = {
        "ttft_p50_s": median(median(p["ttft_s"]) for p in passes),
        "tpot_p50_s": median(median(p["tpot_s"]) for p in passes),
        "tokens_per_s": median(p["tokens_per_s"] for p in passes),
        "answer_score": sum(scores) / len(scores),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
    }


# ---------------------------------------------------------------------------
# Per-layer values of one traced pass
# ---------------------------------------------------------------------------


def _causal_tiles(requests, geometry) -> int:
    """Tiles a dense causal kernel would visit for the same chunk geometry."""
    b = geometry["block_size"]
    total = 0
    for r in requests:
        for c0 in range(r["shared_tokens"], r["executed_len"], adapter.CHUNK_SIZE):
            c1 = min(c0 + adapter.CHUNK_SIZE, r["executed_len"])
            for q1 in range(c0 + b, c1 + b, b):
                total += -(-min(q1, c1) // b)
    return total * geometry["n_heads"] * geometry["n_layers"]


def per_layer_pass(served: dict, record: dict, spans: dict, geometry: dict) -> dict:
    """Per-layer values of one traced pass from its span summary, the
    engine's own counters and the paged-memory snapshot."""
    tel = served["telemetry"]
    requests, counters = tel["requests"], tel["counters"]
    memory = served["memory"] or {}
    arena = memory.get("arena") or {}
    gather = memory.get("decode_gather") or {}
    incl, own, calls = spans["inclusive_s"], spans["self_s"], spans["calls"]

    def c(name):
        return float(counters.get(name, 0.0))

    run_s = spans["root_s"]
    billed = sum(sum(r["chunk_seconds"]) + r["decode_seconds"] for r in requests)
    waits = [
        r["first_chunk_start"] - r["arrival"]
        for r in requests
        if r["first_chunk_start"] is not None
    ]
    kept = [x for r in requests for x in r["kept_kv_ratios"]]
    tiles = c("kernel_packed_tiles_visited")
    rows = c("kernel_packed_rows")
    b, d = geometry["block_size"], geometry["d_head"]
    return {
        "engine.run_s": run_s,
        "engine.billed_s": billed,
        "engine.unbilled_share": 1.0 - _ratio(billed, run_s),
        "engine.self_share": _ratio(own.get("engine.run", 0.0), run_s),
        "engine.ttft_p75_s": _p75(record["ttft_s"]),
        "engine.tpot_p75_s": _p75(record["tpot_s"]),
        "engine.failed_requests": float(record["failed"]),
        "engine.plan_fallbacks": c("plan_fallbacks"),
        "engine.cra_violations": c("cra_guard_violations"),
        "engine.chunk_retries": c("chunk_retries"),
        "engine.degradation_transitions": c("degradation_transitions"),
        "scheduler.queue_wait_p50_s": median(waits),
        "scheduler.prefill_batch_occupancy": _ratio(
            c("kernel_packed_requests"), c("kernel_packed_dispatches")
        ),
        "scheduler.decode_batch_occupancy": _ratio(
            c("kernel_packed_decode_requests"), c("kernel_packed_decode_dispatches")
        ),
        "scheduler.calls": float(calls.get("scheduler", 0)),
        "scheduler.s": incl.get("scheduler", 0.0),
        "plan_cache.hit_share": _ratio(
            c("plan_cache_hits"), c("plan_cache_hits") + c("plan_cache_misses")
        ),
        "plan_cache.calls": float(calls.get("plan_cache", 0)),
        "plan_cache.s": incl.get("plan_cache", 0.0),
        "core.plan_s": incl.get("core.plan", 0.0),
        "core.plan_calls": float(calls.get("core.plan", 0)),
        "core.sample_s": incl.get("core.sample", 0.0),
        "core.filter_s": incl.get("core.filter", 0.0),
        "core.mask_build_s": incl.get("core.mask_build", 0.0),
        "core.plan_reuse_s": incl.get("core.plan_reuse", 0.0),
        "core.plan_share": _ratio(incl.get("core.plan", 0.0), run_s),
        "core.kept_kv_ratio_mean": sum(kept) / len(kept) if kept else 0.0,
        "core.tile_density": _ratio(tiles, _causal_tiles(requests, geometry)) if tiles else 0.0,
        "packed.prefill_s": incl.get("packed.prefill", 0.0),
        "packed.prefill_calls": float(calls.get("packed.prefill", 0)),
        "packed.decode_s": incl.get("packed.decode", 0.0),
        "packed.decode_calls": float(calls.get("packed.decode", 0)),
        "packed.decode_kv_tokens": c("kernel_packed_decode_kv_tokens"),
        "packed.gemm_calls": c("kernel_gemm_calls"),
        "packed.tiles_visited": tiles,
        "packed.pattern_hit_share": _ratio(
            c("kernel_packed_pattern_hits"),
            c("kernel_packed_pattern_hits") + c("kernel_packed_unique_patterns"),
        ),
        "packed.prefill_flops": tiles * 4.0 * d * b * b,
        "packed.prefill_bytes": (
            tiles * 2.0 * b * d * 4 + rows * geometry["n_heads"] * d * 4 * 2.0
        ),
        "flash.s": incl.get("flash", 0.0),
        "flash.calls": float(calls.get("flash", 0)),
        "model.prefill_s": incl.get("model.prefill", 0.0),
        "model.prefill_self_s": own.get("model.prefill", 0.0),
        "model.decode_s": incl.get("model.decode", 0.0),
        "model.decode_self_s": own.get("model.decode", 0.0),
        "kv.append_s": incl.get("kv.append", 0.0),
        "kv.append_calls": float(calls.get("kv.append", 0)),
        "memory.gather_s": incl.get("memory.gather", 0.0),
        "memory.gather_tokens": float(gather.get("gathered_tokens", 0)),
        "memory.viewed_tokens": float(gather.get("viewed_tokens", 0)),
        "memory.prefix_lookup_s": incl.get("memory.prefix_lookup", 0.0),
        "memory.prefix_register_s": incl.get("memory.prefix_register", 0.0),
        "memory.prefix_hit_share": _ratio(
            sum(r["shared_tokens"] for r in requests),
            sum(r["executed_len"] for r in requests),
        ),
        "memory.arena_peak_blocks": float(arena.get("peak_blocks_in_use", 0)),
        "memory.arena_peak_utilization": _ratio(
            arena.get("peak_blocks_in_use", 0), arena.get("n_blocks", 0)
        ),
        "memory.cow_forks": float(arena.get("forks", 0)),
        "memory.kv_evictions": c("kv_evictions"),
        "memory.sheds": c("memory_sheds"),
        "memory.leaked_blocks": c("arena_leaked_blocks"),
    }


def per_layer(traced: list[dict], extra: dict) -> dict:
    """Median over the traced passes of each per-pass value, plus the
    run-level values in ``extra``."""
    values = {k: median(t[k] for t in traced) for k in traced[0]}
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
