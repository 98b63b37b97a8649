"""Shared fixtures for the test suite.

Model builds are cached at module scope (the circuit compiler is cheap, but
calibration bisections add up across hundreds of tests), and a couple of
standard random QKV bundles are provided for kernel tests.  The oracles
and kernel-contract checks the tests hold kernels to live in
:mod:`repro.audit.oracles`, shared with the audit campaign.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro import pool
from repro.model import build_model

# A property failure prints a ``@reproduce_failure`` blob next to the
# minimal example hypothesis shrank it to, so a CI log alone replays it.
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")


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


#: How long the first recorded pooled call on the caller waits for a helper.
HELPER_WAIT_S = 5.0


def record_threads(
    monkeypatch, owner, name: str, *, await_helper: bool = False
) -> list[str]:
    """Wrap ``owner.<name>`` for the test; returns the list the wrapper
    appends each call's thread name to (pool units name their thread).

    With ``await_helper=True`` the first call the test's thread makes
    while draining units of a pooled :func:`repro.pool.run` waits (at most
    :data:`HELPER_WAIT_S`) until a call on another thread has begun.  A
    loaded host can otherwise let the caller drain every unit before a
    helper wakes, which is legal but leaves nothing to assert that the
    pool ran anything.  Tests that assert work stays inline do not opt in.
    """
    threads: list[str] = []
    fn = getattr(owner, name)
    caller = threading.current_thread()
    helper_began = threading.Event()
    waited = False

    def recorded(*args, **kwargs):
        nonlocal waited
        me = threading.current_thread()
        threads.append(me.name)
        if me is not caller:
            helper_began.set()
        elif (await_helper and not waited
              and getattr(pool._in_unit, "active", False)):
            waited = True
            helper_began.wait(HELPER_WAIT_S)
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
    s_k: int | None = None,
):
    """Standard random attention inputs; ``h_kv`` enables GQA shapes and
    ``s_k`` a key prefix longer than the ``s`` query rows."""
    h_kv = h if h_kv is None else h_kv
    s_k = s if s_k is None else s_k
    q = rng.standard_normal((h, s, d)).astype(dtype)
    k = rng.standard_normal((h_kv, s_k, d)).astype(dtype)
    v = rng.standard_normal((h_kv, s_k, d)).astype(dtype)
    return q, k, v


@pytest.fixture()
def qkv(rng):
    return random_qkv(rng)


def random_stripes(rng: np.random.Generator, h: int, s_k: int, share: float):
    """Per-head sorted stripe columns: ``round(share * s_k)`` key columns
    drawn at random for each of ``h`` heads."""
    n = int(round(share * s_k))
    return [
        np.sort(rng.choice(s_k, size=n, replace=False)).astype(np.int64)
        for _ in range(h)
    ]
