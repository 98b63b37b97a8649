"""The frozen benchmark's view of the program still resolves.

``perfbench/`` may not change outside a benchmark PR, so every name its
``adapter.py`` holds is API: a traced run fails with ``LookupError`` (and
CI's ``perfbench-smoke`` with it) when a trace target is renamed or moved.
This is that check as a tier-1 test -- a read-only import of
``perfbench/adapter.py``, resolved the way ``perfbench/tracer.py`` does.
"""

import importlib

import pytest

from tests.conftest import perfbench_adapter

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
