"""Kernel benchmark harness: the perf trajectory behind the speedup claim.

``sampleattn bench`` times the four execution paths of the attention
substrate -- dense, tiled flash, the reference block-sparse kernel, and the
coalesced/grouped fast path -- on SampleAttention plans across sequence
lengths and sparsity levels (``alpha`` sweeps the kept column mass, the
paper's knob).  Results land in ``BENCH_kernel.json`` at the repo root so
successive PRs accumulate a regression trajectory, and each run:

* **fails on numeric divergence** -- the fast path must match the reference
  kernel to float32 tolerance on every case (:class:`~repro.errors.ReproError`
  otherwise);
* **cross-checks the cost model** -- the measured sparse-over-dense speedup
  is reported next to the :mod:`repro.perf` roofline prediction
  (``executed_elements_seconds`` on the billed element counts), and the
  fast path's timing must shrink monotonically with plan density;
* **tracks regressions** -- when a previous ``BENCH_kernel.json`` exists,
  per-case fast-path timings are carried over and the ratio recorded;
* **gates on workspace growth** -- the peak
  :class:`~repro.attention.fastpath.KernelWorkspace` arena bytes of the
  fast path and of the serving engine's packed prefill executor (its
  gathered ``K[I_KV]`` / ``V[I_KV]`` columns, stripe and band score slabs)
  are recorded per case and, unlike wall-clock, are deterministic for a
  given workload, so a case needing *more* scratch than the previous run
  is a hard failure rather than trajectory data; the packed workspace
  must also stop allocating once one call has warmed it.

Schema v3: every execution path is timed with the *same* best-of-``reps``
count (earlier schemas gave each path a different rep budget, which
skewed the cross-path ratios toward the most-repeated path), and each
case records the ``reps`` / BLAS ``threads`` / ``cpu_count`` it ran
under.  The regression reader still accepts v1/v2 files.

Environment knobs (used by the CI ``bench-smoke`` job):

* ``SAMPLEATTN_BENCH_OUT`` -- output path (default ``BENCH_kernel.json``
  in the current directory);
* ``SAMPLEATTN_BENCH_ENFORCE=1`` -- additionally *fail* when the fast path
  is slower than the reference kernel on any case (machine-independent,
  unlike absolute timings, so it is safe to enforce in CI).

Wall-clock numbers are numpy-on-CPU and do not transfer to GPU kernels;
see ``docs/PERFORMANCE.md`` for what does and does not carry over.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..attention.blocksparse import block_sparse_attention
from ..attention.dense import dense_attention
from ..attention.fastpath import KernelWorkspace, fast_block_sparse_attention
from ..attention.flash import flash_attention
from ..attention.packed import PackedItem, packed_block_sparse_attention
from ..config import SampleAttentionConfig
from ..core.sample_attention import plan_sample_attention
from ..errors import ReproError
from ..perf.latency import executed_elements_seconds
from .tables import Table

__all__ = [
    "KernelBenchCase",
    "kernel_bench_cases",
    "run_kernel_bench",
    "run_bench",
]

#: Fast path must match the reference kernel at least this closely
#: (float32 accumulation re-ordered across one softmax vs online tiles).
NUMERIC_TOLERANCE = 2e-5

#: Flagged (not failed): a fast-path case slower than ``ratio * previous``
#: from the prior BENCH_kernel.json is recorded as a regression.  Absolute
#: timings are machine-dependent, so this is trajectory data, not a gate.
REGRESSION_RATIO = 1.5

_DENSE_MAX_LEN = 2048  # dense materialises (H, S, S); cap its memory

#: Per-case workspace peaks gated against the previous BENCH_kernel.json:
#: the fast path's arena and the packed prefill executor's.
_WORKSPACE_KEYS = {
    "workspace_bytes_peak": "fast-path",
    "packed_workspace_bytes_peak": "packed",
}

# Shared workload geometry: GQA 4:1 at paper-like head width.
_H, _H_KV, _D = 8, 2, 64


@dataclass(frozen=True)
class KernelBenchCase:
    """One benchmark point: a sequence length and a sparsity setting."""

    name: str
    seq_len: int
    alpha: float
    r_window: float
    block_size: int = 64


def kernel_bench_cases(scale: str = "quick") -> list[KernelBenchCase]:
    """The benchmark grid.  ``alpha`` sweeps sparsity (lower keeps fewer
    KV columns); the ``s4096`` / ``alpha=0.95`` / ``r_window=1%`` case is
    the paper-default acceptance workload."""
    cases = [
        KernelBenchCase("s1024_a95_w1", 1024, 0.95, 0.01),
        KernelBenchCase("s1024_a50_w1", 1024, 0.50, 0.01),
        KernelBenchCase("s4096_a95_w1", 4096, 0.95, 0.01),
        KernelBenchCase("s4096_a50_w1", 4096, 0.50, 0.01),
    ]
    if scale == "full":
        cases += [
            KernelBenchCase("s2048_a95_w1", 2048, 0.95, 0.01),
            KernelBenchCase("s4096_a95_w8", 4096, 0.95, 0.08),
            KernelBenchCase("s8192_a95_w1", 8192, 0.95, 0.01),
        ]
    return cases


def _time_best(fn, reps: int) -> float:
    """Best-of-``reps`` wall-clock seconds (min filters scheduler noise)."""
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return float(best)


def _blas_threads() -> int:
    """Effective BLAS thread fan-out for this process.

    Honoured env pins first (the CI smoke jobs set ``OMP_NUM_THREADS=1``),
    falling back to the core count numpy's BLAS would grab by default.
    Recorded per case (schema v3) so a timing from a differently-threaded
    machine is never mistaken for a kernel regression.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        val = os.environ.get(var)
        if val:
            try:
                return max(1, int(val))
            except ValueError:
                continue
    return os.cpu_count() or 1


def _bench_case(case: KernelBenchCase, seed: int, reps: int) -> dict:
    rng = np.random.default_rng((seed, case.seq_len, int(case.alpha * 100)))
    q = rng.standard_normal((_H, case.seq_len, _D), dtype=np.float32)
    k = rng.standard_normal((_H_KV, case.seq_len, _D), dtype=np.float32)
    v = rng.standard_normal((_H_KV, case.seq_len, _D), dtype=np.float32)

    config = SampleAttentionConfig(
        alpha=case.alpha,
        r_window=case.r_window,
        block_size=case.block_size,
    )
    plan = plan_sample_attention(q, k, config)
    mask = plan.to_block_mask()

    reference = block_sparse_attention(q, k, v, mask)
    workspace = KernelWorkspace()
    fast = fast_block_sparse_attention(q, k, v, mask, workspace=workspace)
    err = float(np.abs(fast.output - reference.output).max())
    if err > NUMERIC_TOLERANCE:
        raise ReproError(
            f"fast path diverges from reference on {case.name}: "
            f"max abs err {err:.2e} > {NUMERIC_TOLERANCE:.0e}"
        )

    # The serving executor on the same plan: one item, its own workspace.
    item = PackedItem.from_plan(q, k, v, plan)
    packed_ws = KernelWorkspace()
    packed = packed_block_sparse_attention([item], workspace=packed_ws)
    if not np.array_equal(
        packed.results[0].computed_elements, plan.element_counts()
    ):
        raise ReproError(
            f"packed executor's element count is off the plan's on {case.name}"
        )
    packed_warm_allocations = packed_ws.allocations

    # Every path gets the *same* rep count (schema v3): min-of-reps only
    # filters noise consistently when each path has the same number of
    # chances to hit a quiet scheduler slot, and cross-path ratios
    # (fast_vs_ref, fast_vs_dense) are only comparable under equal reps.
    seconds = {
        "flash": _time_best(lambda: flash_attention(q, k, v), reps),
        "reference": _time_best(
            lambda: block_sparse_attention(q, k, v, mask), reps
        ),
        "fast": _time_best(
            lambda: fast_block_sparse_attention(q, k, v, mask, workspace=workspace),
            reps,
        ),
        "packed": _time_best(
            lambda: packed_block_sparse_attention([item], workspace=packed_ws),
            reps,
        ),
    }
    if packed_ws.allocations != packed_warm_allocations:
        raise ReproError(
            f"packed workspace allocated after warm-up on {case.name}: "
            f"{packed_ws.allocations} backing allocations vs "
            f"{packed_warm_allocations} after the first call"
        )
    if case.seq_len <= _DENSE_MAX_LEN:
        seconds["dense"] = _time_best(lambda: dense_attention(q, k, v), reps)

    # Cost-model cross-check: the roofline predicts sparse-over-dense
    # speedup from billed element counts alone.  Measured python speedups
    # exceed it (interpreter overhead scales with tiles, not elements);
    # it is reported for calibration and used for the monotonicity check.
    b2 = case.block_size**2
    computed = float(reference.visited_blocks.sum()) * b2
    total = float(reference.total_causal_blocks * _H) * b2
    roofline = executed_elements_seconds(total, _D) / executed_elements_seconds(
        computed, _D
    )

    dense_secs = seconds.get("dense", seconds["flash"])
    # The workspace is grow-only, so after the timed warm calls its
    # resident bytes *are* the peak for this case's geometry.
    return {
        "name": case.name,
        "seq_len": case.seq_len,
        "alpha": case.alpha,
        "r_window": case.r_window,
        "block_size": case.block_size,
        "heads": _H,
        "kv_heads": _H_KV,
        "d_head": _D,
        "reps": reps,
        "threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "density": reference.density,
        "seconds": seconds,
        "speedup_fast_vs_reference": seconds["reference"] / seconds["fast"],
        "speedup_fast_vs_dense": dense_secs / seconds["fast"],
        "roofline_speedup_vs_dense": roofline,
        "max_abs_err_fast_vs_reference": err,
        "workspace_bytes_peak": workspace.nbytes,
        "packed_workspace_bytes_peak": packed_ws.nbytes,
        "element_density": packed.results[0].element_density,
        "fast_stats": {
            **(fast.stats or {}),
            "workspace_allocations": workspace.allocations,
            "workspace_bytes": workspace.nbytes,
        },
    }


def run_kernel_bench(
    scale: str = "quick",
    seed: int = 0,
    *,
    out_path: str | os.PathLike | None = None,
    enforce: bool | None = None,
    reps: int = 2,
    cases: list[KernelBenchCase] | None = None,
) -> dict:
    """Run the kernel benchmark grid and write ``BENCH_kernel.json``.

    Parameters
    ----------
    out_path:
        Where to write the JSON; defaults to ``$SAMPLEATTN_BENCH_OUT`` or
        ``BENCH_kernel.json`` in the current directory.  ``""`` disables
        writing.
    enforce:
        Fail (:class:`~repro.errors.ReproError`) when the fast path is
        slower than the reference kernel on any case.  Defaults to
        ``$SAMPLEATTN_BENCH_ENFORCE``.  Numeric divergence always fails.
    """
    if out_path is None:
        out_path = os.environ.get("SAMPLEATTN_BENCH_OUT", "BENCH_kernel.json")
    if enforce is None:
        enforce = os.environ.get("SAMPLEATTN_BENCH_ENFORCE", "") == "1"

    previous: dict[str, float] = {}
    # Per workspace key: case name -> peak bytes of the previous run.
    previous_ws: dict[str, dict[str, int]] = {key: {} for key in _WORKSPACE_KEYS}
    out_file = Path(out_path) if out_path else None
    if out_file is not None and out_file.exists():
        try:
            prior = json.loads(out_file.read_text(encoding="utf-8"))
            # v3 adds per-case reps/threads/cpu_count and equalises rep
            # counts across paths; the carry-over fields below exist in
            # every prior schema, so v1/v2 files still seed the gates.
            previous = {
                c["name"]: c["seconds"]["fast"] for c in prior.get("cases", [])
            }
            for c in prior.get("cases", []):
                # v2+ records the fast-path peak top-level per case; v1
                # stashed the same number inside fast_stats -- accept
                # either so the gate engages across the schema bump.
                legacy = c.get("fast_stats", {}).get("workspace_bytes")
                for key in _WORKSPACE_KEYS:
                    ws = c.get(
                        key, legacy if key == "workspace_bytes_peak" else None
                    )
                    if ws is not None:
                        previous_ws[key][c["name"]] = int(ws)
        except (json.JSONDecodeError, KeyError, TypeError):
            previous = {}
            previous_ws = {key: {} for key in _WORKSPACE_KEYS}

    results = []
    for case in cases if cases is not None else kernel_bench_cases(scale):
        record = _bench_case(case, seed, reps)
        prev = previous.get(record["name"])
        record["previous_fast_seconds"] = prev
        record["regression_vs_previous"] = (
            record["seconds"]["fast"] / prev if prev else None
        )
        record["regressed"] = bool(
            prev and record["seconds"]["fast"] > REGRESSION_RATIO * prev
        )
        for key, label in _WORKSPACE_KEYS.items():
            prev_ws = previous_ws[key].get(record["name"])
            record[f"previous_{key}"] = prev_ws
            if prev_ws is not None and record[key] > prev_ws:
                # Workspace footprint is a function of (workload, kernel
                # code) only -- no scheduler noise -- so growth is a real
                # memory regression and gates unconditionally, like
                # numeric divergence.
                raise ReproError(
                    f"{label} workspace grew on {record['name']}: "
                    f"{record[key]} bytes > previous {prev_ws}"
                )
        results.append(record)

    # Sanity: fast-path time shrinks (within noise) as plans get sparser
    # at a fixed length -- measured behaviour must track the cost model's
    # monotonicity even though absolute roofline seconds do not transfer.
    by_len: dict[int, list[dict]] = {}
    for r in results:
        by_len.setdefault(r["seq_len"], []).append(r)
    for group in by_len.values():
        group = sorted(group, key=lambda r: r["density"])
        for sparser, denser in zip(group, group[1:]):
            if sparser["seconds"]["fast"] > 1.25 * denser["seconds"]["fast"]:
                raise ReproError(
                    "fast path is not monotone in sparsity: "
                    f"{sparser['name']} (density {sparser['density']:.3f}) "
                    f"took {sparser['seconds']['fast']:.4f}s vs "
                    f"{denser['name']} (density {denser['density']:.3f}) "
                    f"at {denser['seconds']['fast']:.4f}s"
                )

    if enforce:
        slow = [
            r["name"]
            for r in results
            if r["seconds"]["fast"] > r["seconds"]["reference"]
        ]
        if slow:
            raise ReproError(
                f"fast path slower than reference kernel on: {', '.join(slow)}"
            )

    report = {
        "schema": "sampleattn-kernel-bench/v3",
        "scale": scale,
        "seed": seed,
        "reps": reps,
        "tolerance": NUMERIC_TOLERANCE,
        "enforced": bool(enforce),
        "workspace_bytes_peak": max(
            (r["workspace_bytes_peak"] for r in results), default=0
        ),
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


def run_bench(scale="quick", seed: int = 0) -> list[Table]:
    """``sampleattn bench``: kernel timing grid + regression JSON."""
    scale_name = scale if isinstance(scale, str) else scale.name
    report = run_kernel_bench(scale_name, seed)
    table = Table(
        "Kernel bench: sparse execution paths (seconds, best-of-reps)",
        [
            "case",
            "S",
            "alpha",
            "density",
            "dense",
            "flash",
            "reference",
            "fast",
            "packed",
            "fast_vs_ref",
            "roofline",
            "max_err",
        ],
        notes=(
            "fast_vs_ref = reference/fast wall-clock; roofline = cost-model "
            "sparse-over-dense prediction (numpy overhead makes measured "
            "dense speedups exceed it). JSON written to "
            + (os.environ.get("SAMPLEATTN_BENCH_OUT") or "BENCH_kernel.json")
        ),
    )
    for r in report["cases"]:
        table.add_row(
            r["name"],
            r["seq_len"],
            r["alpha"],
            round(r["density"], 3),
            round(r["seconds"]["dense"], 4) if "dense" in r["seconds"] else "-",
            round(r["seconds"]["flash"], 4),
            round(r["seconds"]["reference"], 4),
            round(r["seconds"]["fast"], 4),
            round(r["seconds"]["packed"], 4),
            round(r["speedup_fast_vs_reference"], 2),
            round(r["roofline_speedup_vs_dense"], 2),
            f"{r['max_abs_err_fast_vs_reference']:.1e}",
        )
    stats = Table(
        "Kernel bench: fast-path execution statistics",
        [
            "case",
            "runs_coalesced",
            "head_groups",
            "gemm_calls",
            "tiles_visited",
            "ws_allocs",
            "ws_peak_kb",
            "packed_ws_peak_kb",
            "regressed",
        ],
        notes="workspace allocations are cumulative across the warm calls "
        "of one case; flat counts across cases mean O(1) steady-state "
        "allocation. ws_peak_kb (fast path) and packed_ws_peak_kb (the "
        "serving executor's gather / score scratch) are deterministic and "
        "gated against the previous BENCH_kernel.json",
    )
    for r in report["cases"]:
        s = r["fast_stats"]
        stats.add_row(
            r["name"],
            int(s.get("runs_coalesced", 0)),
            int(s.get("head_groups", 0)),
            int(s.get("gemm_calls", 0)),
            int(s.get("tiles_visited", 0)),
            int(s.get("workspace_allocations", 0)),
            round(r["workspace_bytes_peak"] / 1024, 1),
            round(r["packed_workspace_bytes_peak"] / 1024, 1),
            "yes" if r["regressed"] else "no",
        )
    return [table, stats]
