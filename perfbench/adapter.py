"""The one place perfbench names the program's API.

Engine construction, the model, the roofline prediction and the list of
callables the tracer wraps all live here, so an API change in ``repro`` is
followed in this file only.  Everything else in perfbench works on the
plain dicts :func:`serve` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

MODEL_NAME = "glm-mini"
CHUNK_SIZE = 256

_COMMON = dict(
    chunk_size=CHUNK_SIZE, scheduler="round_robin", billing="measured", max_queue=64
)
_SPARSE = dict(
    method="sample", execution="block", kernel_mode="fast", batching="packed"
)
#: Engine configuration per workload; everything not named is engine default.
ENGINE_CONFIG = {
    "prefill_long": {**_COMMON, **_SPARSE},
    "prefill_long_dense": {**_COMMON, "method": "flash"},
    "decode_heavy": {**_COMMON, **_SPARSE},
    "serving_mix": {**_COMMON, **_SPARSE, "kv_backend": "paged", "prefix_sharing": True},
}


def build_model():
    from repro.model import build_model as build

    return build(MODEL_NAME)


def build_engine(model, workload: str, prompt_lookup):
    """``prompt_lookup(request, executed_len) -> token ids``."""
    from repro.serving import ServingEngine

    return ServingEngine(model, prompt_builder=prompt_lookup, **ENGINE_CONFIG[workload])


def serve(engine, requests) -> dict:
    """One ``engine.run`` as plain data: true wall seconds around the call,
    the lossless telemetry dict (counters, per-request records) and the
    paged-memory snapshot."""
    t0 = time.perf_counter()
    result = engine.run(requests)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "telemetry": result.telemetry.to_dict(),
        "memory": result.memory,
    }


def score_answer(generated, answer) -> float:
    """Prefix score in [0, 1] of the first generated tokens against ``answer``."""
    from repro.tasks.base import score_tokens

    return score_tokens(generated[: len(answer)], answer, mode="prefix") / 100.0


def model_geometry(model) -> dict:
    from repro.config import DEFAULT_CONFIG

    cfg = model.config
    return {
        "n_layers": cfg.n_layers,
        "n_heads": cfg.n_heads,
        "d_head": cfg.d_head,
        "block_size": DEFAULT_CONFIG.block_size,
    }


def roofline_ttft_speedup(prompt_len: int) -> float:
    """The repo's roofline prediction of sample-vs-flash TTFT at this length."""
    from repro.perf import CHATGLM2_6B, LatencyModel

    return float(LatencyModel(CHATGLM2_6B).ttft_speedup_vs_flash(int(prompt_len)))


def library_versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


# ---------------------------------------------------------------------------
# Trace targets: the public callables at each layer boundary.
# ---------------------------------------------------------------------------

SPARSE = ("prefill_long", "decode_heavy", "serving_mix")
MULTI_CHUNK = ("prefill_long", "serving_mix")
ALL = (*SPARSE, "prefill_long_dense")


@dataclass(frozen=True)
class Target:
    span: str  # span name; several callables may share one
    module: str
    attr: str  # "function" or "Class.method"
    fires_on: tuple = ()  # workloads on which the span must be seen
    rid_arg: int | None = None  # positional index of a request id, if any


TARGETS = (
    Target("engine.run", "repro.serving.engine", "ServingEngine.run", ALL),
    Target("scheduler", "repro.serving.scheduler", "ChunkScheduler.select_batch", SPARSE),
    Target("scheduler", "repro.serving.scheduler", "ChunkScheduler.rotate_batch", SPARSE),
    Target("scheduler", "repro.serving.scheduler", "ChunkScheduler.select", ("prefill_long_dense",)),
    Target("scheduler", "repro.serving.scheduler", "ChunkScheduler.rotate", ("prefill_long_dense",)),
    Target("scheduler", "repro.serving.scheduler", "AdmissionQueue.offer", ALL),
    Target("plan_cache", "repro.serving.plan_cache", "PlanCache.get", SPARSE, rid_arg=1),
    Target("plan_cache", "repro.serving.plan_cache", "PlanCache.put", SPARSE, rid_arg=1),
    Target("core.plan", "repro.core.providers", "SampleAttentionProvider.plan", SPARSE),
    Target("core.sample", "repro.core.sampling", "sample_column_scores", SPARSE),
    Target("core.filter", "repro.core.filtering", "select_kv_indices", SPARSE),
    Target("core.mask_build", "repro.core.plan", "SparsePlan.to_block_mask", SPARSE),
    Target("core.plan_reuse", "repro.core.plan", "SparsePlan.extended", MULTI_CHUNK),
    Target("core.plan_reuse", "repro.core.plan", "SparsePlan.validate", SPARSE),
    Target("packed.prefill", "repro.attention.packed", "packed_block_sparse_attention", SPARSE),
    Target("packed.decode", "repro.attention.packed", "packed_decode_attention", SPARSE),
    Target("flash", "repro.attention.flash", "flash_attention", ("prefill_long_dense",)),
    Target("model.prefill", "repro.model.transformer", "Transformer.prefill_chunk_batch", SPARSE),
    Target("model.prefill", "repro.model.transformer", "Transformer.prefill_chunk", ("prefill_long_dense",)),
    Target("model.decode", "repro.model.transformer", "Transformer.decode_batch", SPARSE),
    Target("model.decode", "repro.model.transformer", "Transformer.decode_step", ("prefill_long_dense",)),
    Target("kv.append", "repro.model.kv_cache", "LayerKVCache.append", ("prefill_long", "prefill_long_dense", "decode_heavy")),
    Target("kv.append", "repro.memory.paged_cache", "PagedLayerKVCache.append", ("serving_mix",)),
    Target("memory.gather", "repro.memory.gather", "BatchedKVGather.__call__", ("serving_mix",)),
    Target("memory.gather", "repro.memory.arena", "KVArena.gather", ("serving_mix",)),
    Target("memory.prefix_lookup", "repro.memory.sharing", "PrefixSharingRegistry.lookup", ("serving_mix",)),
    Target("memory.prefix_register", "repro.memory.sharing", "PrefixSharingRegistry.register", ("serving_mix",)),
)
