"""Shared fixtures for the test suite.

Model builds are cached at module scope (the circuit compiler is cheap, but
calibration bisections add up across hundreds of tests), and a couple of
standard random QKV bundles are provided for kernel tests.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.model import build_model


@pytest.fixture(scope="session")
def glm_mini():
    return build_model("glm-mini")


@pytest.fixture(scope="session")
def intern_mini():
    return build_model("intern-mini")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def perfbench_adapter():
    """A read-only import of the frozen ``perfbench/adapter.py``."""
    return perfbench_module("adapter")


def perfbench_module(name: str):
    """A read-only import of the frozen ``perfbench/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def record_threads(monkeypatch, owner, name: str) -> list[str]:
    """Wrap ``owner.<name>`` for the test; returns the list the wrapper
    appends each call's thread name to (pool units name their thread)."""
    threads: list[str] = []
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return threads


def random_qkv(
    rng: np.random.Generator,
    h: int = 4,
    s: int = 256,
    d: int = 32,
    h_kv: int | None = None,
    dtype=np.float32,
):
    """Standard random attention inputs; ``h_kv`` enables GQA shapes."""
    h_kv = h if h_kv is None else h_kv
    q = rng.standard_normal((h, s, d)).astype(dtype)
    k = rng.standard_normal((h_kv, s, d)).astype(dtype)
    v = rng.standard_normal((h_kv, s, d)).astype(dtype)
    return q, k, v


@pytest.fixture()
def qkv(rng):
    return random_qkv(rng)


def striped_plan(
    rng: np.random.Generator,
    h: int,
    s_q: int,
    s_k: int,
    *,
    window: int,
    stripes: float | list = 0.1,
    block: int = 16,
    sink_tokens: int = 0,
    dense_last_rows: int = 0,
    bands: list[tuple[int, int]] | None = None,
):
    """A hand-built :class:`SparsePlan`: ``stripes`` is either the per-head
    index lists or the share of key columns each head draws at random;
    ``bands`` become the plan's ``extras["bands"]``."""
    from repro.config import SampleAttentionConfig
    from repro.core.plan import SparsePlan

    if not isinstance(stripes, list):
        n = int(round(stripes * s_k))
        stripes = [
            np.sort(rng.choice(s_k, size=n, replace=False)).astype(np.int64)
            for _ in range(h)
        ]
    return SparsePlan(
        kv_indices=stripes,
        window=window,
        kv_ratio=np.asarray([ix.size / s_k for ix in stripes]),
        achieved_share=np.ones(h),
        sampled_rows=np.arange(min(s_q, 1)),
        config=SampleAttentionConfig(
            block_size=block,
            sink_tokens=sink_tokens,
            dense_last_rows=dense_last_rows,
        ),
        s_q=s_q,
        s_k=s_k,
        extras={"bands": list(bands)} if bands else {},
    )


def execute_striped(q, k, v, window, idx, **plan_kw):
    """Window + per-head stripe columns ``idx`` as a hand-built plan through
    the one plan executor (a packed batch of one); returns its
    :class:`~repro.attention.PackedPrefillResult`."""
    from repro.attention import PackedItem, packed_block_sparse_attention

    idx = [np.asarray(ix, dtype=np.int64) for ix in idx]
    plan = striped_plan(
        None, len(idx), q.shape[1], k.shape[1], window=window, stripes=idx,
        **plan_kw,
    )
    return packed_block_sparse_attention(
        [PackedItem.from_plan(q, k, v, plan)]
    ).results[0]


def plan_element_mask(plan) -> np.ndarray:
    """``(H, S_q, S_k)`` element mask a plan executes -- window band ∪
    ``extras["bands"]`` diagonals ∪ causal stripe/sink columns ∪ dense last
    rows -- written out longhand as the oracle for the packed kernel."""
    pos = np.arange(plan.s_q)[:, None] + (plan.s_k - plan.s_q)
    col = np.arange(plan.s_k)[None, :]
    causal = col <= pos
    band = causal & (col > pos - plan.window)
    for lo, hi in plan.extras.get("bands") or ():
        band |= causal & (pos - col >= lo) & (pos - col < hi)
    mask = np.empty((plan.n_heads, plan.s_q, plan.s_k), dtype=bool)
    for hh, idx in enumerate(plan.kv_indices):
        keep = np.zeros(plan.s_k, dtype=bool)
        keep[idx] = True
        keep[: plan.config.sink_tokens] = True
        mask[hh] = band | (causal & keep)
    start = plan.s_q - min(plan.config.dense_last_rows, plan.s_q)
    mask[:, start:] = causal[start:]
    return mask
