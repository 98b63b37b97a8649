"""Kernel benchmark harness: JSON schema, regression tracking, gates."""

import json

import pytest

from repro.errors import ReproError
from repro.harness.bench import (
    KernelBenchCase,
    kernel_bench_cases,
    run_kernel_bench,
)
from repro.harness.experiments import EXPERIMENTS

TINY = [KernelBenchCase("s128_a95_w5", 128, 0.95, 0.05, block_size=32)]


def test_registered_experiment():
    assert "bench" in EXPERIMENTS


def test_case_grids():
    quick = kernel_bench_cases("quick")
    full = kernel_bench_cases("full")
    assert len(full) > len(quick)
    # The acceptance workload: 4k tokens at paper-default sparsity.
    assert any(
        c.seq_len == 4096 and c.alpha == 0.95 and c.r_window == 0.01
        for c in quick
    )


def test_report_schema_and_regression_tracking(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    report = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "sampleattn-kernel-bench/v3"
    assert on_disk["threads"] >= 1
    (case,) = report["cases"]
    # v3: every path is timed with the same rep count, and the record
    # carries the thread environment the numbers were taken under.
    assert case["reps"] == 1
    assert case["threads"] >= 1
    assert case["cpu_count"] >= 1
    assert case["previous_fast_seconds"] is None
    assert case["previous_workspace_bytes_peak"] is None
    assert case["workspace_bytes_peak"] > 0
    assert report["workspace_bytes_peak"] == case["workspace_bytes_peak"]
    for key in ("flash", "reference", "fast"):
        assert case["seconds"][key] > 0.0
    assert case["max_abs_err_fast_vs_reference"] <= report["tolerance"]
    assert case["speedup_fast_vs_reference"] > 0.0
    assert case["roofline_speedup_vs_dense"] >= 1.0
    assert case["fast_stats"]["runs_coalesced"] >= 1

    # Second run sees the first run's timings as the previous trajectory.
    report2 = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    (case2,) = report2["cases"]
    assert case2["previous_fast_seconds"] == pytest.approx(
        case["seconds"]["fast"]
    )
    assert case2["regression_vs_previous"] is not None
    # Workspace bytes are deterministic: same workload, same peak.
    assert case2["previous_workspace_bytes_peak"] == case["workspace_bytes_peak"]
    assert case2["workspace_bytes_peak"] == case["workspace_bytes_peak"]


def test_workspace_growth_gates(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    report = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    # Shrink the recorded peak so the (deterministic) rerun looks like a
    # workspace regression against the previous trajectory.
    prior = json.loads(out.read_text())
    prior["cases"][0]["workspace_bytes_peak"] = (
        report["cases"][0]["workspace_bytes_peak"] - 1
    )
    out.write_text(json.dumps(prior))
    with pytest.raises(ReproError, match="workspace grew"):
        run_kernel_bench(
            "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
        )


def test_packed_workspace_growth_gates(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    report = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    (case,) = report["cases"]
    # gathered K/V columns, stripe and band score slabs all live in it
    assert case["packed_workspace_bytes_peak"] > 0
    assert 0.0 < case["element_density"] <= case["density"]
    prior = json.loads(out.read_text())
    prior["cases"][0]["packed_workspace_bytes_peak"] -= 1
    out.write_text(json.dumps(prior))
    with pytest.raises(ReproError, match="packed workspace grew"):
        run_kernel_bench(
            "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
        )


def test_packed_allocation_after_warm_up_fails(tmp_path, monkeypatch):
    import repro.harness.bench as bench_mod

    real = bench_mod.packed_block_sparse_attention

    def leaky(items, *, workspace):
        workspace.take(f"leak{workspace.allocations}", (1,))
        return real(items, workspace=workspace)

    monkeypatch.setattr(bench_mod, "packed_block_sparse_attention", leaky)
    with pytest.raises(ReproError, match="allocated after warm-up"):
        run_kernel_bench(
            "quick", seed=0, out_path=tmp_path / "b.json", reps=1, cases=TINY
        )


def test_workspace_gate_reads_v1_fast_stats(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    report = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    # A v1-era file carried the bytes only inside fast_stats; the gate must
    # still pick them up across the schema bump.
    prior = json.loads(out.read_text())
    case = prior["cases"][0]
    case["fast_stats"]["workspace_bytes"] = (
        report["cases"][0]["workspace_bytes_peak"] - 1
    )
    del case["workspace_bytes_peak"]
    out.write_text(json.dumps(prior))
    with pytest.raises(ReproError, match="workspace grew"):
        run_kernel_bench(
            "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
        )


def test_numeric_divergence_fails(tmp_path, monkeypatch):
    import repro.harness.bench as bench_mod

    real = bench_mod.fast_block_sparse_attention

    def corrupted(q, k, v, mask, **kw):
        res = real(q, k, v, mask, **kw)
        bad = res.output.copy()
        bad[0, 0, 0] += 1.0
        return type(res)(
            output=bad,
            visited_blocks=res.visited_blocks,
            total_causal_blocks=res.total_causal_blocks,
            stats=res.stats,
        )

    monkeypatch.setattr(bench_mod, "fast_block_sparse_attention", corrupted)
    with pytest.raises(ReproError, match="diverges"):
        run_kernel_bench(
            "quick", seed=0, out_path=tmp_path / "b.json", reps=1, cases=TINY
        )


def test_enforce_flags_slow_fast_path(tmp_path, monkeypatch):
    import repro.harness.bench as bench_mod

    # _bench_case times flash, reference, fast, packed, dense in that order.
    faked = iter([0.001, 0.001, 0.002, 0.001, 0.1])

    def fake_time(fn, reps):
        fn()
        return next(faked)

    monkeypatch.setattr(bench_mod, "_time_best", fake_time)
    with pytest.raises(ReproError, match="slower than reference"):
        run_kernel_bench(
            "quick",
            seed=0,
            out_path=tmp_path / "b.json",
            enforce=True,
            reps=1,
            cases=TINY,
        )


def test_env_overrides(tmp_path, monkeypatch):
    out = tmp_path / "env_out.json"
    monkeypatch.setenv("SAMPLEATTN_BENCH_OUT", str(out))
    monkeypatch.setenv("SAMPLEATTN_BENCH_ENFORCE", "")
    report = run_kernel_bench("quick", seed=0, reps=1, cases=TINY)
    assert out.exists()
    assert report["enforced"] is False


def test_reader_accepts_v2_previous_file(tmp_path):
    """A v3 run seeded from a v2-era file still engages both gates."""
    out = tmp_path / "BENCH_kernel.json"
    out.write_text(json.dumps({
        "schema": "sampleattn-kernel-bench/v2",
        "cases": [{
            "name": "s128_a95_w5",
            "seconds": {"fast": 123.0},
            "workspace_bytes_peak": 10**12,
        }],
    }))
    report = run_kernel_bench(
        "quick", seed=0, out_path=out, enforce=False, reps=1, cases=TINY
    )
    (case,) = report["cases"]
    assert case["previous_fast_seconds"] == 123.0
    assert case["previous_workspace_bytes_peak"] == 10**12
    assert case["regression_vs_previous"] is not None
