"""perfbench entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` serves each wave as an untraced/traced pair of passes and
reports the per-layer metrics.  The last stdout line is the result object;
the full record (per-pass values, environment stamp, ``tokens_digest``) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", ROOT):
    if p.is_dir() and str(p) not in sys.path:
        sys.path.insert(0, str(p))

SETUP_SAMPLES = 3
GEMM_PROBE_N = 384
GEMM_PROBE_REPS = 120


def gemm_probe() -> float:
    """Seconds for a fixed single-thread GEMM loop: the host's speed right
    now, recorded beside every pass it may have contaminated."""
    import numpy as np

    a = np.full((GEMM_PROBE_N, GEMM_PROBE_N), 0.5, dtype=np.float32)
    t0 = time.perf_counter()
    for _ in range(GEMM_PROBE_REPS):
        a @ a
    return time.perf_counter() - t0


def setup(workload: str, seed: int, smoke: bool):
    """Everything before the first timed pass: imports, model build, wave
    generation, engine construction and one small untimed warm-up wave."""
    from perfbench import adapter, workloads

    model = adapter.build_model()
    waves = workloads.make_waves(workload, seed, smoke=smoke)
    warm = workloads.make_waves(workload, seed, smoke=True)[0]
    adapter.serve(adapter.build_engine(model, workload, warm.prompt_for), warm.requests)
    return model, waves


def setup_in_child(args) -> float:
    """Set up once more in a fresh interpreter (the model build is memoised
    in-process, so repeating it here would time a cache hit)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(args, model, waves):
    """Serve waves for ``--seconds``; returns per-pass records (and, when
    tracing, the traced passes' per-layer values and the check failures).

    A round serves one wave: once when not tracing, as an untraced/traced
    pair when tracing.  Pairs alternate which side runs first, so neither
    always inherits the other's warm caches."""
    from perfbench import adapter, metrics, tracer

    geometry = adapter.model_geometry(model)
    # Untraced: every wave at least once, so answer_score and the digest
    # cover the whole workload.  Traced: at least one pair.
    min_rounds = 1 if args.trace else len(waves)
    passes, layer_values, problems, spans = [], [], [], []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        wave_index = rounds % len(waves)
        wave = waves[wave_index]
        if not args.trace:
            order = [False]
        else:
            order = [False, True] if rounds % 2 == 0 else [True, False]
        for traced in order:
            gc.collect()  # the previous pass's engine and arena go before this one's come
            probe = gemm_probe()
            engine = adapter.build_engine(model, args.workload, wave.prompt_for)
            if traced:
                with tracer.Tracer(adapter.TARGETS) as tr:
                    served = adapter.serve(engine, wave.requests)
                spans = tr.spans
                summary = tracer.summarize(spans)
                problems += coverage_problems(args.workload, tr, summary, served)
            else:
                served = adapter.serve(engine, wave.requests)
            record = metrics.pass_record(wave, served)
            record.update(wave=wave_index, traced=traced, gemm_probe_s=probe)
            problems += record.pop("problems")
            if traced:
                layer_values.append(
                    metrics.per_layer_pass(served, record, summary, geometry)
                )
            passes.append(record)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds:
            break
    if spans:
        tracer.write_jsonl(out_dir() / f"trace-{args.workload}.jsonl", spans)
    return passes, layer_values, problems


def coverage_problems(workload, tr, spans, served) -> list[str]:
    """Every target the table says serves this workload fired; flash stayed
    silent on sparse workloads; self times add up to the root."""
    from perfbench import adapter

    problems = [
        f"trace target {t.module}:{t.attr} never fired on {workload}"
        for t in adapter.TARGETS
        if workload in t.fires_on and not tr.fired[t]
    ]
    fallbacks = served["telemetry"]["counters"].get("plan_fallbacks", 0)
    if workload in adapter.SPARSE and spans["calls"].get("flash") and not fallbacks:
        problems.append("flash_attention ran on a sparse workload without a plan fallback")
    if spans["closure_error"] > 0.01:
        problems.append(
            f"span self times miss engine.run by {spans['closure_error']:.1%}"
        )
    return problems


def out_dir() -> Path:
    path = HERE / "out"
    path.mkdir(exist_ok=True)
    return path


def main(argv=None) -> int:
    t_start = time.perf_counter()
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    from perfbench import workloads  # imports numpy and repro: part of set-up

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny prompts, for tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    model, waves = setup(args.workload, args.seed, args.smoke)
    setup_samples = [time.perf_counter() - t_start]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0

    from perfbench import adapter, metrics

    if not args.trace:
        setup_samples += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    passes, layer_values, problems = measure(args, model, waves)

    # Repeats of a wave must generate the same tokens, traced or not.
    first: dict[int, str] = {}
    for p in passes:
        if first.setdefault(p["wave"], p["tokens_digest"]) != p["tokens_digest"]:
            problems.append(f"wave {p['wave']}: tokens differ between passes")
    digest = hashlib.sha1("".join(first[w] for w in sorted(first)).encode()).hexdigest()

    untraced = [p for p in passes if not p["traced"]]
    e2e = metrics.end_to_end(
        untraced,
        metrics.median(setup_samples),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.workload == "prefill_long_dense" and e2e["answer_score"]["value"] != 1.0:
        problems.append(f"dense answer_score {e2e['answer_score']['value']} != 1.0")

    if args.trace:
        pairs = list(zip(untraced, (p for p in passes if p["traced"])))
        median_len = metrics.median(r.prompt_len for w in waves for r in w.requests)
        shown = metrics.per_layer(
            layer_values,
            {
                "perf.roofline_ttft_speedup": adapter.roofline_ttft_speedup(median_len),
                "trace.overhead_share": metrics.median(t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs),
                "machine.gemm_probe_s": metrics.median(p["gemm_probe_s"] for p in passes),
            },
        )
    else:
        shown = e2e

    result = {
        "correct": not problems,
        "attempted": sum(p["sent"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": shown,
    }
    record = {
        **result,
        "workload": args.workload,
        "end_to_end": e2e,
        "tokens_digest": digest,
        "problems": problems,
        "passes": passes,
        "setup_samples_s": setup_samples,
        "env": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "blas_pin": BLAS_PIN,
            "python": sys.version.split()[0],
            **adapter.library_versions(),
            "passes": len(passes),
            "gemm_probe_s": [p["gemm_probe_s"] for p in passes],
        },
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir() / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} tokens_digest={digest}")
    for metric, entry in shown.items():
        print(f"{metric:36s} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
