"""Tests of the benchmark itself; run with ``pytest perfbench/tests``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import adapter, compare, metrics, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# ------------------------------------------------------------ BENCHMARK.json
def test_spec_matches_the_metric_and_workload_tables():
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


def test_spec_respects_the_contract_limits():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


# ------------------------------------------------------------ the generator
def flat(waves):
    return [
        (r.request_id, r.arrival, r.prompt_len, r.decode_tokens,
         w.prompts[r.request_id].tolist(), w.answers[r.request_id])
        for w in waves
        for r in w.requests
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    assert flat(workloads.make_waves(name, 5)) == flat(workloads.make_waves(name, 5))
    assert flat(workloads.make_waves(name, 5)) != flat(workloads.make_waves(name, 6))


def test_dense_workload_is_the_first_sparse_wave():
    dense = workloads.make_waves("prefill_long_dense", 9)
    assert flat(dense) == flat(workloads.make_waves("prefill_long", 9)[:1])


def test_engine_sees_only_requests_and_a_prompt_lookup():
    from repro.serving import Request

    (wave,) = workloads.make_waves("serving_mix", 2, smoke=True)
    assert all(type(r) is Request for r in wave.requests)
    for r in wave.requests:
        prompt = wave.prompt_for(r, r.prompt_len)
        assert isinstance(prompt, np.ndarray) and prompt.size == r.prompt_len
    shared = {tuple(wave.prompts[r.request_id][:1024]) for r in wave.requests}
    assert len(shared) == 1


# --------------------------------------------------------------- the command
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_declared_metrics(name, trace):
    proc = run_bench(
        "--workload", name, "--seed", "4", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    record = json.loads(
        (ROOT / "perfbench" / "out" / f"result-{name}-seed4-trace{trace}.json").read_text()
    )
    assert record["env"]["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(record["tokens_digest"]) == 40
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_heavy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------- the tracer
def test_tracer_names_a_missing_target_and_restores_the_rest():
    from repro.serving.plan_cache import PlanCache

    original = PlanCache.get
    bogus = adapter.Target("x", "repro.serving.plan_cache", "PlanCache.renamed_away")
    real = next(t for t in adapter.TARGETS if t.attr == "PlanCache.get")
    with pytest.raises(LookupError, match="PlanCache.renamed_away"):
        with tracer.Tracer((real, bogus)):
            pass
    assert PlanCache.get is original
    with tracer.Tracer(adapter.TARGETS):
        assert PlanCache.get is not original
    assert PlanCache.get is original


def test_self_times_close_and_nested_same_name_counts_once():
    spans = [
        ["engine.run", 0.0, 10.0, -1, None],
        ["memory.gather", 1.0, 5.0, 0, None],
        ["memory.gather", 2.0, 4.0, 1, None],
        ["core.plan", 6.0, 7.0, 0, 3],
    ]
    s = tracer.summarize(spans)
    assert s["inclusive_s"]["memory.gather"] == 4.0
    assert s["self_s"]["memory.gather"] == 4.0
    assert s["self_s"]["engine.run"] == 5.0
    assert s["closure_error"] == 0.0
    assert tracer.summarize(spans + [["flash", 11.0, 12.0, -1, None]])["closure_error"] > 0.01


# ---------------------------------------------------------------- compare.py
def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, [x * 1.005 for x in base], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [x * 1.3 for x in base], "lower", 0.1) == "regressed"
    assert compare.verdict(base, [x * 0.7 for x in base], "lower", 0.1) == "improved"
    assert compare.verdict(base, [x * 0.7 for x in base], "higher", 0.1) == "regressed"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
    assert compare.verdict(noisy, [1.2, 1.1, 0.9, 1.0, 1.3], "lower", 0.1) == "unresolved"
