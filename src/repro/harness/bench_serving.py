"""Serving benchmark: packed cross-request execution vs per-request calls.

``sampleattn bench-serving`` runs the executing engine twice over the same
request stream -- once with ``batching="request"`` (one packed dispatch of
a single item per (request, layer, chunk) and one decode step per request
at a time; same kernel, so the ratio is the value of co-scheduling) and
once with ``batching="packed"`` (one
:func:`~repro.attention.packed.packed_block_sparse_attention` dispatch per
(layer, batch step) for prefill and one
:func:`~repro.attention.packed.packed_decode_attention` dispatch per
(layer, decode step) across all decoding requests) -- and writes
``BENCH_serving.json`` at the repo root (schema
``sampleattn-serving-bench/v3``; the regression reader still accepts v1/v2
files).  Each case records tokens/sec, TTFT p50/p95, decode-phase TPOT
p50/p95 (inter-token latency), decode-only tokens/sec, the GEMM/dispatch
counters, the packed-over-per-request speedups, and (v3) a ``providers``
axis: the packed run repeated under each plan provider
(:data:`~repro.config.PLAN_PROVIDER_NAMES`) so per-provider tokens/sec
are tracked per task category -- informational only, the speedup floors
gate the default provider exclusively.  Beyond the timings, every run
*gates*:

* **Numeric parity (always on)** -- a deterministic roofline-billed pair
  of runs must agree bitwise on every non-kernel registry counter (plan
  cache traffic, sampled elements, degradation ladder, admissions) and on
  every generated token; a direct kernel probe on ragged GQA items must
  match :func:`~repro.attention.striped.striped_attention` (the
  paper-semantic kernel executing the same plans) within
  :data:`NUMERIC_TOLERANCE`, computed-element counts exactly.
* **Dispatch accounting (always on)** -- the packed run must bill exactly
  one dispatch per (layer, batch step) in both phases:
  ``kernel_packed_dispatches == n_layers * kernel_packed_prefill_steps``
  and ``kernel_packed_decode_dispatches ==
  n_layers * kernel_packed_decode_steps``.
* **Regression trajectory** -- when a previous ``BENCH_serving.json``
  exists, per-case packed (decode) tokens/sec are carried over and the
  ratio recorded (flagged, not failed: wall-clock is machine-dependent).

The grid has two regimes: the prefill-bound cases (long prompts, short
decodes) and the decode-heavy cases (short prompts, long decodes; marked
``decode_heavy``) that exercise the fused batched decode path.
``sampleattn bench-serving --decode-heavy`` restricts the run to the
latter.

Environment knobs (used by the CI ``serving-bench-smoke`` job):

* ``SAMPLEATTN_SERVING_BENCH_OUT`` -- output path (default
  ``BENCH_serving.json`` in the current directory; ``""`` disables);
* ``SAMPLEATTN_SERVING_BENCH_ENFORCE=1`` -- additionally *fail* when the
  packed speedup falls below :data:`SPEEDUP_FLOOR` on a decode-heavy case
  (prefill-bound cases run the same kernel over the same rows in both
  arms, so their ratio is ~1 by design), or the packed decode tokens/sec
  speedup falls below :data:`DECODE_SPEEDUP_FLOOR` on a decode-heavy case
  with mean decode batch occupancy >= 4 (absolute timings do not
  transfer across machines, so the floors are opt-in; the parity and
  dispatch gates fail unconditionally).

Wall-clock numbers are numpy-on-CPU; see ``docs/PERFORMANCE.md`` for what
does and does not carry over to GPU serving stacks.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..attention.fastpath import KernelWorkspace
from ..attention.packed import PackedItem, packed_block_sparse_attention
from ..attention.striped import striped_attention
from ..config import DEFAULT_CONFIG, PLAN_PROVIDER_NAMES, SampleAttentionConfig
from ..core.sample_attention import plan_sample_attention
from ..errors import ReproError
from ..model import build_model
from ..serving import Request, ServingEngine, poisson_workload
from .bench import _blas_threads
from .tables import Table

__all__ = [
    "ServingBenchCase",
    "serving_bench_cases",
    "run_serving_bench",
    "run_bench_serving",
]

#: Packed outputs must match ``striped_attention`` at least this closely
#: (float32 accumulation re-ordered between the two kernels' tilings).
NUMERIC_TOLERANCE = 2e-5

#: Acceptance floor for the packed-over-per-request tokens/sec ratio on
#: decode-heavy cases.  Recorded always; enforced only under
#: ``SAMPLEATTN_SERVING_BENCH_ENFORCE=1`` (wall-clock is machine-bound).
SPEEDUP_FLOOR = 1.3

#: Acceptance floor for the packed-over-per-request *decode-only*
#: tokens/sec ratio on decode-heavy cases whose mean decode batch
#: occupancy reaches 4 (below that the fused path has nothing to
#: amortise over).  Same opt-in enforcement as :data:`SPEEDUP_FLOOR`.
DECODE_SPEEDUP_FLOOR = 1.5

#: Flagged (not failed): packed tokens/sec below ``previous / ratio``
#: from the prior BENCH_serving.json is recorded as a regression.
REGRESSION_RATIO = 1.5

#: Registry counters with this prefix describe the execution path itself
#: (dispatch/GEMM/packing shape) and legitimately differ between modes;
#: every other counter must match bitwise in the parity runs.
_KERNEL_PREFIX = "kernel_"


@dataclass(frozen=True)
class ServingBenchCase:
    """One benchmark point: an arrival process and a prompt-length mix."""

    name: str
    rate_per_s: float
    duration_s: float
    prompt_lens: tuple[int, ...]
    decode_tokens: int = 4
    length_dist: str = "uniform"
    min_requests: int = 6
    max_batch_requests: int = 8
    #: Decode-bound regime: short prompts, long decodes.  Marks the case
    #: for the decode tokens/sec speedup floor and the ``--decode-heavy``
    #: grid filter.
    decode_heavy: bool = False


def serving_bench_cases(
    scale: str = "quick", *, decode_heavy_only: bool = False
) -> list[ServingBenchCase]:
    """The benchmark grid: prefill-bound streams plus decode-heavy mixes.

    Arrival rates are chosen so the queue depth reaches the batch width
    quickly (the packed path only amortises when several requests are
    co-scheduled); ``min_requests`` guarantees batch depth >= 4 even on
    unlucky Poisson draws.  The decode-heavy cases invert the token mix
    -- prompts a fraction of a chunk, decode runs dozens of steps -- so
    the fused batched decode path dominates the wall clock;
    ``decode_heavy_only=True`` (the CLI's ``--decode-heavy``) restricts
    the run to them.
    """
    decode_cases = [
        ServingBenchCase(
            "decode_short_u8", rate_per_s=400.0, duration_s=0.02,
            prompt_lens=(64, 128, 192), decode_tokens=48,
            min_requests=8, decode_heavy=True,
        ),
        ServingBenchCase(
            "decode_short_ln", rate_per_s=400.0, duration_s=0.02,
            prompt_lens=(64, 128, 192), decode_tokens=48,
            length_dist="lognormal", min_requests=8, decode_heavy=True,
        ),
    ]
    if scale == "full":
        decode_cases.append(
            ServingBenchCase(
                "decode_long_u8", rate_per_s=400.0, duration_s=0.03,
                prompt_lens=(128, 256), decode_tokens=96,
                min_requests=10, decode_heavy=True,
            )
        )
    if decode_heavy_only:
        return decode_cases
    cases = [
        ServingBenchCase(
            "poisson_u8", rate_per_s=60.0, duration_s=0.15,
            prompt_lens=(4096, 6144, 8192),
        ),
        ServingBenchCase(
            "heavytail_ln", rate_per_s=60.0, duration_s=0.15,
            prompt_lens=(4096, 6144, 8192), length_dist="lognormal",
        ),
    ]
    if scale == "full":
        cases.append(
            ServingBenchCase(
                "poisson_long", rate_per_s=30.0, duration_s=0.4,
                prompt_lens=(8192, 12288, 16384), decode_tokens=8,
                min_requests=10,
            )
        )
    return cases + decode_cases


def _case_workload(case: ServingBenchCase, seed: int) -> list[Request]:
    """Deterministic workload for ``case``: first seed whose Poisson draw
    yields at least ``min_requests`` arrivals (the batched comparison is
    meaningless at depth 1)."""
    name_key = zlib.crc32(case.name.encode("utf-8"))
    for attempt in range(32):
        rng = np.random.default_rng((seed, attempt, name_key))
        reqs = poisson_workload(
            rng,
            rate_per_s=case.rate_per_s,
            duration_s=case.duration_s,
            prompt_lens=case.prompt_lens,
            decode_tokens=case.decode_tokens,
            length_dist=case.length_dist,
            max_prompt_len=(
                2 * max(case.prompt_lens)
                if case.length_dist == "lognormal"
                else None
            ),
        )
        if len(reqs) >= case.min_requests:
            return reqs
    raise ReproError(
        f"could not draw >= {case.min_requests} arrivals for {case.name}"
    )


def _build_engine(
    case: ServingBenchCase,
    seed: int,
    batching: str,
    billing: str,
    provider: str = "sample",
) -> ServingEngine:
    model = build_model("glm-mini", seed=seed)
    return ServingEngine(
        model,
        method="sample",
        config=DEFAULT_CONFIG.replace(provider=provider),
        chunk_size=256,
        scheduler="round_robin",
        billing=billing,
        length_scale=4,
        max_queue=64,
        seed=seed,
        batching=batching,
        max_batch_requests=case.max_batch_requests,
    )


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _measure(
    case: ServingBenchCase, seed: int, batching: str, provider: str = "sample"
) -> dict:
    """One measured-billing run: wall clock, tokens/sec, TTFT, TPOT,
    decode-only throughput, counters."""
    reqs = _case_workload(case, seed)
    engine = _build_engine(
        case, seed, batching, billing="measured", provider=provider
    )
    t0 = time.perf_counter()
    result = engine.run(reqs)
    wall = time.perf_counter() - t0
    reg = result.telemetry
    completed = [t for t in reg.requests if t.outcome == "completed"]
    tokens = sum(t.executed_len + len(t.generated) for t in completed)
    ttfts = [
        t.first_token - t.arrival
        for t in reg.requests
        if t.first_token is not None
    ]
    # Decode-phase metrics (schema v2): per-request TPOT is the mean
    # inter-token latency (decode wall seconds over generated tokens);
    # decode tokens/sec divides total decoded tokens by total decode
    # seconds, so for the packed mode it measures the fused batched
    # decode path directly (the fused step's wall time is apportioned
    # across its requests, keeping the denominators comparable).
    tpots = [
        t.decode_seconds / len(t.generated)
        for t in completed
        if t.generated and t.decode_seconds > 0
    ]
    decode_tokens = sum(len(t.generated) for t in completed)
    decode_seconds = sum(t.decode_seconds for t in completed)
    c = reg._counters
    dispatches = c.get("kernel_packed_dispatches", 0.0)
    decode_dispatches = c.get("kernel_packed_decode_dispatches", 0.0)
    return {
        "batching": batching,
        "requests": len(reqs),
        "completed": len(completed),
        "wall_seconds": wall,
        "tokens": int(tokens),
        "tokens_per_sec": tokens / wall if wall > 0 else 0.0,
        "ttft_p50": _percentile(ttfts, 50),
        "ttft_p95": _percentile(ttfts, 95),
        "tpot_p50": _percentile(tpots, 50),
        "tpot_p95": _percentile(tpots, 95),
        "decode_tokens": int(decode_tokens),
        "decode_seconds": decode_seconds,
        "decode_tokens_per_sec": (
            decode_tokens / decode_seconds if decode_seconds > 0 else 0.0
        ),
        "mean_batch_occupancy": (
            float(c.get("kernel_packed_requests", 0.0)) / dispatches
            if dispatches
            else None
        ),
        "mean_decode_occupancy": (
            float(c.get("kernel_packed_decode_requests", 0.0))
            / decode_dispatches
            if decode_dispatches
            else None
        ),
        "counters": {
            k: c[k]
            for k in sorted(c)
            if k.startswith(_KERNEL_PREFIX) or k in ("admitted", "completed")
        },
    }


def _parity_gate(case: ServingBenchCase, seed: int) -> dict:
    """Deterministic roofline-billed pair: packed vs per-request.

    Non-kernel counters and generated tokens must match bitwise; the
    packed run must bill exactly one dispatch per (layer, batch step).
    Arrivals are collapsed to t=0 so the queue is deep from the first
    step and the parity run exercises genuine multi-request dispatches
    (roofline virtual time outpaces real arrival gaps, which would
    otherwise degenerate the batch to depth 1).
    """
    reqs = [
        Request(r.request_id, 0.0, r.prompt_len, r.decode_tokens)
        for r in _case_workload(case, seed)
    ]
    runs = {}
    for batching in ("request", "packed"):
        engine = _build_engine(case, seed, batching, billing="roofline")
        result = engine.run(reqs)
        reg = result.telemetry
        runs[batching] = {
            "counters": {
                k: v
                for k, v in sorted(reg._counters.items())
                if not k.startswith(_KERNEL_PREFIX)
            },
            "kernel": {
                k: v
                for k, v in sorted(reg._counters.items())
                if k.startswith(_KERNEL_PREFIX)
            },
            "tokens": [list(t.generated) for t in reg.requests],
            "n_layers": engine.model.config.n_layers,
        }

    counters_equal = runs["request"]["counters"] == runs["packed"]["counters"]
    tokens_equal = runs["request"]["tokens"] == runs["packed"]["tokens"]
    if not counters_equal:
        diff = {
            k: (runs["request"]["counters"].get(k), runs["packed"]["counters"].get(k))
            for k in set(runs["request"]["counters"]) | set(runs["packed"]["counters"])
            if runs["request"]["counters"].get(k) != runs["packed"]["counters"].get(k)
        }
        raise ReproError(
            f"packed/per-request counter parity failed on {case.name}: {diff}"
        )
    if not tokens_equal:
        raise ReproError(
            f"packed/per-request generated tokens diverge on {case.name}"
        )

    kc = runs["packed"]["kernel"]
    dispatches = kc.get("kernel_packed_dispatches", 0.0)
    steps = kc.get("kernel_packed_prefill_steps", 0.0)
    n_layers = runs["packed"]["n_layers"]
    if steps <= 0 or dispatches != n_layers * steps:
        raise ReproError(
            f"dispatch accounting failed on {case.name}: "
            f"{dispatches} dispatches != {n_layers} layers x {steps} steps"
        )
    decode_dispatches = kc.get("kernel_packed_decode_dispatches", 0.0)
    decode_steps = kc.get("kernel_packed_decode_steps", 0.0)
    if decode_steps <= 0 or decode_dispatches != n_layers * decode_steps:
        raise ReproError(
            f"decode dispatch accounting failed on {case.name}: "
            f"{decode_dispatches} dispatches != {n_layers} layers x "
            f"{decode_steps} decode steps"
        )
    return {
        "counters_equal": True,
        "tokens_equal": True,
        "packed_dispatches": int(dispatches),
        "packed_prefill_steps": int(steps),
        "packed_decode_dispatches": int(decode_dispatches),
        "packed_decode_steps": int(decode_steps),
        "n_layers": int(n_layers),
        "mean_batch_occupancy": (
            float(kc.get("kernel_packed_requests", 0.0)) / dispatches
            if dispatches
            else 0.0
        ),
        "mean_decode_occupancy": (
            float(kc.get("kernel_packed_decode_requests", 0.0))
            / decode_dispatches
            if decode_dispatches
            else 0.0
        ),
    }


def _kernel_probe(seed: int) -> float:
    """Hermetic output-parity probe: one packed dispatch over ragged GQA
    items vs ``striped_attention`` (the paper-semantic kernel) per item;
    returns the max abs error."""
    rng = np.random.default_rng((seed, 0xBEEF))
    h, h_kv, d = 8, 4, 64
    config = SampleAttentionConfig(alpha=0.9, r_window=0.02, block_size=64)
    items = []
    refs = []
    for s_k in (512, 832, 1280):
        s_q = 256
        q = rng.standard_normal((h, s_q, d), dtype=np.float32)
        k = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
        v = rng.standard_normal((h_kv, s_k, d), dtype=np.float32)
        plan = plan_sample_attention(q, k, config)
        items.append(PackedItem.from_plan(q, k, v, plan))
        refs.append(
            striped_attention(
                q, k, v, plan.window, plan.kv_indices,
                sink_tokens=config.sink_tokens,
                dense_last_rows=config.dense_last_rows,
            )
        )
    res = packed_block_sparse_attention(items, workspace=KernelWorkspace())
    err = 0.0
    for got, ref in zip(res.results, refs):
        err = max(err, float(np.abs(got.output - ref.output).max()))
        if not np.array_equal(got.computed_elements, ref.computed_elements):
            raise ReproError("kernel probe: packed computed-element counts diverge")
    if err > NUMERIC_TOLERANCE:
        raise ReproError(
            f"kernel probe: packed output error {err:.2e} > "
            f"{NUMERIC_TOLERANCE:.0e} vs striped_attention"
        )
    return err


def _read_previous(out_file: Path | None) -> dict[str, dict]:
    """Per-case regression baselines from a prior ``BENCH_serving.json``.

    Accepts both schema versions: v1 files lack the decode-phase fields,
    so those baselines are carried as ``None`` (no decode regression
    flagging until a v2 file exists).
    """
    if out_file is None or not out_file.exists():
        return {}
    try:
        prior = json.loads(out_file.read_text(encoding="utf-8"))
        return {
            c["name"]: {
                "tokens_per_sec": c["packed"]["tokens_per_sec"],
                "decode_tokens_per_sec": c["packed"].get(
                    "decode_tokens_per_sec"
                ),
            }
            for c in prior.get("cases", [])
        }
    except (json.JSONDecodeError, KeyError, TypeError):
        return {}


def run_serving_bench(
    scale: str = "quick",
    seed: int = 0,
    *,
    out_path: str | os.PathLike | None = None,
    enforce: bool | None = None,
    cases: list[ServingBenchCase] | None = None,
    decode_heavy: bool = False,
) -> dict:
    """Run the serving benchmark grid and write ``BENCH_serving.json``.

    Parameters
    ----------
    out_path:
        Where to write the JSON; defaults to
        ``$SAMPLEATTN_SERVING_BENCH_OUT`` or ``BENCH_serving.json`` in the
        current directory.  ``""`` disables writing.
    enforce:
        Fail (:class:`~repro.errors.ReproError`) when, on a decode-heavy
        case, the packed speedup falls below :data:`SPEEDUP_FLOOR` or (at
        decode occupancy >= 4) the decode tokens/sec speedup falls below
        :data:`DECODE_SPEEDUP_FLOOR`.  Defaults to
        ``$SAMPLEATTN_SERVING_BENCH_ENFORCE``.  The parity and dispatch
        gates always fail hard.
    decode_heavy:
        Restrict the grid to the decode-heavy cases (the CLI's
        ``--decode-heavy``).
    """
    if out_path is None:
        out_path = os.environ.get(
            "SAMPLEATTN_SERVING_BENCH_OUT", "BENCH_serving.json"
        )
    if enforce is None:
        enforce = os.environ.get("SAMPLEATTN_SERVING_BENCH_ENFORCE", "") == "1"

    out_file = Path(out_path) if out_path else None
    previous = _read_previous(out_file)

    probe_err = _kernel_probe(seed)

    if cases is None:
        cases = serving_bench_cases(scale, decode_heavy_only=decode_heavy)
    results = []
    for case in cases:
        parity = _parity_gate(case, seed)
        request = _measure(case, seed, "request")
        packed = _measure(case, seed, "packed")
        speedup = (
            packed["tokens_per_sec"] / request["tokens_per_sec"]
            if request["tokens_per_sec"] > 0
            else 0.0
        )
        decode_speedup = (
            packed["decode_tokens_per_sec"]
            / request["decode_tokens_per_sec"]
            if request["decode_tokens_per_sec"] > 0
            else 0.0
        )
        # Provider axis: the same packed measured run under each plan
        # provider.  Purely informational -- per-provider tokens/sec are
        # recorded so provider overheads are visible per task category,
        # but the speedup floors only ever gate the default provider
        # (provider plans differ in kept-KV footprint by design).
        providers = {
            "sample": {
                "tokens_per_sec": packed["tokens_per_sec"],
                "decode_tokens_per_sec": packed["decode_tokens_per_sec"],
                "ttft_p95": packed["ttft_p95"],
            }
        }
        for prov in PLAN_PROVIDER_NAMES:
            if prov == "sample":
                continue
            m = _measure(case, seed, "packed", provider=prov)
            providers[prov] = {
                "tokens_per_sec": m["tokens_per_sec"],
                "decode_tokens_per_sec": m["decode_tokens_per_sec"],
                "ttft_p95": m["ttft_p95"],
            }
        prev = previous.get(case.name, {})
        prev_tps = prev.get("tokens_per_sec")
        prev_dtps = prev.get("decode_tokens_per_sec")
        record = {
            "name": case.name,
            "rate_per_s": case.rate_per_s,
            "duration_s": case.duration_s,
            "prompt_lens": list(case.prompt_lens),
            "length_dist": case.length_dist,
            "decode_tokens": case.decode_tokens,
            "max_batch_requests": case.max_batch_requests,
            "decode_heavy": case.decode_heavy,
            "request": request,
            "packed": packed,
            "providers": providers,
            "speedup_tokens_per_sec": speedup,
            "speedup_decode_tokens_per_sec": decode_speedup,
            "parity": parity,
            "previous_packed_tokens_per_sec": prev_tps,
            "previous_packed_decode_tokens_per_sec": prev_dtps,
            "regression_vs_previous": (
                prev_tps / packed["tokens_per_sec"]
                if prev_tps and packed["tokens_per_sec"] > 0
                else None
            ),
            "regressed": bool(
                prev_tps
                and packed["tokens_per_sec"] * REGRESSION_RATIO < prev_tps
            ),
            "decode_regressed": bool(
                prev_dtps
                and packed["decode_tokens_per_sec"] * REGRESSION_RATIO
                < prev_dtps
            ),
        }
        results.append(record)
        if enforce and case.decode_heavy and speedup < SPEEDUP_FLOOR:
            raise ReproError(
                f"packed speedup {speedup:.2f}x below floor "
                f"{SPEEDUP_FLOOR}x on {case.name}"
            )
        occupancy = packed["mean_decode_occupancy"] or 0.0
        if (
            enforce
            and case.decode_heavy
            and occupancy >= 4.0
            and decode_speedup < DECODE_SPEEDUP_FLOOR
        ):
            raise ReproError(
                f"packed decode tokens/sec speedup {decode_speedup:.2f}x "
                f"below floor {DECODE_SPEEDUP_FLOOR}x on {case.name} "
                f"(decode occupancy {occupancy:.1f})"
            )

    report = {
        "schema": "sampleattn-serving-bench/v3",
        "scale": scale,
        "seed": seed,
        "model": "glm-mini",
        "grid": "decode_heavy" if decode_heavy else "default",
        "tolerance": NUMERIC_TOLERANCE,
        "speedup_floor": SPEEDUP_FLOOR,
        "decode_speedup_floor": DECODE_SPEEDUP_FLOOR,
        "enforced": bool(enforce),
        "kernel_probe_max_abs_err": probe_err,
        "numpy": np.__version__,
        "threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
        "cases": results,
    }
    if out_file is not None:
        out_file.write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
    return report


def run_bench_serving(
    scale="quick", seed: int = 0, decode_heavy: bool = False
) -> list[Table]:
    """``sampleattn bench-serving [--decode-heavy]``: packed vs
    per-request + JSON."""
    scale_name = scale if isinstance(scale, str) else scale.name
    report = run_serving_bench(scale_name, seed, decode_heavy=decode_heavy)
    table = Table(
        "Serving bench: packed vs per-request execution (measured billing)",
        [
            "case",
            "reqs",
            "req_tok/s",
            "packed_tok/s",
            "speedup",
            "req_p95_ttft",
            "packed_p95_ttft",
            "occupancy",
            "regressed",
        ],
        notes=(
            "speedup = packed/per-request tokens per wall second; occupancy "
            "= mean requests per packed dispatch; parity gates (counters, "
            "tokens, one dispatch per layer x step, output probe "
            f"<= {NUMERIC_TOLERANCE:.0e}) passed for every row. JSON "
            "written to "
            + (
                os.environ.get("SAMPLEATTN_SERVING_BENCH_OUT")
                or "BENCH_serving.json"
            )
        ),
    )
    for r in report["cases"]:
        table.add_row(
            r["name"],
            r["request"]["requests"],
            round(r["request"]["tokens_per_sec"], 1),
            round(r["packed"]["tokens_per_sec"], 1),
            round(r["speedup_tokens_per_sec"], 2),
            round(r["request"]["ttft_p95"], 3) if r["request"]["ttft_p95"] else "-",
            round(r["packed"]["ttft_p95"], 3) if r["packed"]["ttft_p95"] else "-",
            round(r["packed"]["mean_batch_occupancy"] or 0.0, 2),
            "yes" if r["regressed"] else "no",
        )
    dispatch = Table(
        "Serving bench: dispatch accounting (roofline parity runs)",
        [
            "case",
            "layers",
            "steps",
            "packed_dispatches",
            "req_gemms",
            "packed_gemms",
        ],
        notes="packed_dispatches == layers x steps is a hard gate: one "
        "fused kernel dispatch per (layer, batch step)",
    )
    for r in report["cases"]:
        p = r["parity"]
        dispatch.add_row(
            r["name"],
            p["n_layers"],
            p["packed_prefill_steps"],
            p["packed_dispatches"],
            int(r["request"]["counters"].get("kernel_gemm_calls", 0)),
            int(r["packed"]["counters"].get("kernel_gemm_calls", 0)),
        )
    decode = Table(
        "Serving bench: decode phase (fused batched decode vs per-request)",
        [
            "case",
            "decode_steps",
            "decode_dispatches",
            "occupancy",
            "req_decode_tok/s",
            "packed_decode_tok/s",
            "decode_speedup",
            "req_tpot_p95",
            "packed_tpot_p95",
        ],
        notes=(
            "decode_dispatches == layers x decode_steps is a hard gate "
            "(one ragged attention dispatch per layer per batched step); "
            "occupancy = mean decoding requests per dispatch; decode "
            f"speedup floor {DECODE_SPEEDUP_FLOOR}x enforced on "
            "decode-heavy cases at occupancy >= 4; TPOT = decode seconds "
            "per generated token (p95 across requests)"
        ),
    )
    for r in report["cases"]:
        p = r["parity"]
        req, pk = r["request"], r["packed"]
        decode.add_row(
            r["name"],
            p["packed_decode_steps"],
            p["packed_decode_dispatches"],
            round(pk["mean_decode_occupancy"] or 0.0, 2),
            round(req["decode_tokens_per_sec"], 1),
            round(pk["decode_tokens_per_sec"], 1),
            round(r["speedup_decode_tokens_per_sec"], 2),
            round(req["tpot_p95"], 5) if req["tpot_p95"] else "-",
            round(pk["tpot_p95"], 5) if pk["tpot_p95"] else "-",
        )
    provider_cols = ["case"] + [
        f"{p}_tok/s" for p in PLAN_PROVIDER_NAMES
    ]
    provider_table = Table(
        "Serving bench: packed tokens/sec per plan provider",
        provider_cols,
        notes=(
            "same packed measured run under each plan provider "
            "(config.provider); informational -- the speedup floors gate "
            "only the default 'sample' provider"
        ),
    )
    for r in report["cases"]:
        provider_table.add_row(
            r["name"],
            *[
                round(r["providers"][p]["tokens_per_sec"], 1)
                for p in PLAN_PROVIDER_NAMES
            ],
        )
    return [table, dispatch, decode, provider_table]
