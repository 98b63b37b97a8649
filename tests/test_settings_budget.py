"""Settings ratchet: every value a caller can set on the serving and
planning entry points, by name.

A value stays settable only while some caller outside the tests sets it to
a non-default value; everything else is a module constant that tests patch
(``plan_cache.REPLAN_INTERVAL``, ``engine.MAX_BATCH_REQUESTS``, ...).  Adding
a parameter to any of these signatures means adding it here, in review.
"""

import inspect

import pytest

from repro.attention import (
    PackedDecodeItem,
    PackedItem,
    fast_block_sparse_attention,
    flash_attention,
    packed_block_sparse_attention,
)
from repro.backends import SampleAttentionBackend
from repro.core import (
    MInferenceProvider,
    SampleAttentionProvider,
    VerticalSlashProvider,
    plan_sample_attention,
    sample_attention,
)
from repro.memory import MemoryPressureController
from repro.model import Transformer
from repro.serving import FleetEngine, PlanCache, ServingEngine

SETTABLE = {
    ServingEngine: (
        "model", "method", "config", "chunk_size", "scheduler", "max_queue",
        "admission_policy", "billing", "length_scale", "seed",
        "prompt_builder", "fault_injector", "deadline_s", "degrade_after",
        "breaker_threshold", "breaker_cooldown_chunks", "execution",
        "kernel_mode", "batching", "kv_backend", "arena_blocks",
        "prefix_sharing",
    ),
    FleetEngine: (
        "model", "n_workers", "routing_policy", "session_of", "max_queue",
        "admission_policy", "deadline_s", "heartbeat_interval_s",
        "restart_backoff_s", "max_restarts", "fault_injector",
        "engine_kwargs",
    ),
    PlanCache: (),
    SampleAttentionProvider: (),
    MInferenceProvider: (),
    VerticalSlashProvider: (),
    SampleAttentionBackend: ("config",),
    sample_attention: ("q", "k", "v", "config", "scale", "plan"),
    plan_sample_attention: (
        "q", "k", "config", "scale", "selection_mode", "detect_diagonals",
    ),
    SampleAttentionProvider.plan: ("q", "k", "config", "scale"),
    MInferenceProvider.plan: ("q", "k", "config", "scale"),
    VerticalSlashProvider.plan: ("q", "k", "config", "scale"),
    PackedItem.from_plan: ("q", "k", "v", "plan", "scale"),
    # The kernels' entry points: scratch is the calling thread's own, and
    # results map back to items by position, so neither a workspace nor a
    # tag is settable.
    PackedItem: (
        "q", "k", "v", "window", "kv_indices", "sink_tokens",
        "dense_last_rows", "bands", "scale",
    ),
    PackedDecodeItem: ("q", "k", "v", "scale"),
    packed_block_sparse_attention: ("items",),
    flash_attention: ("q", "k", "v", "scale"),
    fast_block_sparse_attention: ("q", "k", "v", "mask", "scale"),
    # Decode keeps no attention mass and memory pressure drops no KV: no
    # recording flag, no keep floor, no eviction candidates.
    Transformer.decode_step: ("token", "position", "caches"),
    Transformer.decode_batch: ("entries", "attend_batch", "on_error", "gather"),
    MemoryPressureController: ("arena", "registry"),
    MemoryPressureController.relieve: ("need_blocks",),
}


@pytest.mark.parametrize(
    "target", list(SETTABLE), ids=lambda target: target.__qualname__
)
def test_settable_parameters_are_the_listed_ones(target):
    params = tuple(p for p in inspect.signature(target).parameters if p != "self")
    assert params == SETTABLE[target]


def test_engine_stays_within_its_budget():
    assert len(SETTABLE[ServingEngine]) <= 22
