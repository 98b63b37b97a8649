"""The frozen benchmark's view of the program still resolves.

``perfbench/`` may not change outside a benchmark PR, so every name its
``adapter.py`` holds is API: a traced run fails with ``LookupError`` (and
CI's ``perfbench-smoke`` with it) when a trace target is renamed or moved.
This is that check as a tier-1 test -- a read-only import of
``perfbench/adapter.py``, resolved the way ``perfbench/tracer.py`` does.
"""

import collections
import functools
import importlib
import threading

import numpy as np
import pytest

import repro.attention.packed as packed_mod
from repro import pool
from repro.serving import Request
from repro.tasks.needle import make_needle_case
from tests.conftest import perfbench_adapter, perfbench_module, record_threads

ADAPTER = perfbench_adapter()


@pytest.mark.parametrize(
    "target", ADAPTER.TARGETS, ids=lambda t: f"{t.module}:{t.attr}"
)
def test_trace_target_resolves_to_a_callable(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{target.module}:{target.attr} (span {target.span!r})"
    assert set(target.fires_on) <= set(ADAPTER.ENGINE_CONFIG)


@pytest.mark.parametrize("workload", sorted(ADAPTER.ENGINE_CONFIG))
def test_engine_config_constructs(glm_mini, workload):
    from repro.serving import ServingEngine

    engine = ADAPTER.build_engine(glm_mini, workload, lambda request, n: None)
    assert isinstance(engine, ServingEngine)
    assert engine.method == ADAPTER.ENGINE_CONFIG[workload]["method"]


def test_dense_workload_stays_on_the_traced_path():
    # The dense arm's trace targets (flash_attention, prefill_chunk,
    # decode_step, ChunkScheduler.select/rotate) fire only on per-request
    # batching; the engine must keep importing the name the tracer rebinds.
    import repro.serving.engine as engine_mod
    from repro.attention.flash import flash_attention

    config = ADAPTER.ENGINE_CONFIG["prefill_long_dense"]
    assert config["method"] == "flash" and "batching" not in config
    assert engine_mod.flash_attention is flash_attention


def test_every_target_runs_on_the_main_thread(glm_mini, monkeypatch):
    # The tracer keeps one span stack per thread, so a target that fired on
    # a pool thread would open a root span of its own and break closure.
    # Pool units (packed prefill and decode items, dense q-blocks, row
    # parts of the prefill GEMMs) must stay below every traced callable,
    # on packed sparse and dense runs alike.  The prompts are long enough
    # for both kinds of item to clear their floors: 256-row chunks against
    # >= 512 keys, decode caches of >= 1024 keys.
    tracer = perfbench_module("tracer")
    threads = collections.defaultdict(set)
    units = [record_threads(monkeypatch, packed_mod, name,
                            await_helper=True)
             for name in ("_execute_item", "decode_row_attention")]

    class ThreadRecorder(tracer.Tracer):
        def _wrap(self, fn, target):
            traced = super()._wrap(fn, target)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                threads[target.span].add(threading.current_thread().name)
                return traced(*args, **kwargs)

            return recorded

    pooled = []
    run = pool.run

    def counting_run(fn, units):
        units = list(units)
        pooled.append(len(units))
        return run(fn, units)

    monkeypatch.setattr(pool, "run", counting_run)
    rng = np.random.default_rng(0)
    prompts = {
        rid: make_needle_case(n, 0.5, rng=rng).prompt
        for rid, n in enumerate((1100, 1200))
    }
    requests = [Request(rid, 0.0, int(p.size), 2) for rid, p in prompts.items()]
    with pool._forced_workers(2):
        for workload in ("prefill_long", "prefill_long_dense"):
            engine = ADAPTER.build_engine(
                glm_mini, workload, lambda r, n: prompts[r.request_id]
            )
            with ThreadRecorder(ADAPTER.TARGETS) as tr:
                ADAPTER.serve(engine, requests)
            assert tracer.summarize(tr.spans)["closure_error"] <= 0.01, workload
    assert max(pooled) >= 2  # the pool did run units off the main thread
    main = threading.main_thread().name
    assert threads and all(names == {main} for names in threads.values()), threads
    # ... and whole prefill and decode items were among them.
    assert all(set(ran_on) - {main} for ran_on in units), "no item pooled"
