"""Shared fixtures for the benchmark suite.

Each ``benchmarks/test_<exhibit>.py`` module regenerates one table or
figure of the paper: the ``benchmark`` fixture times that exhibit's key
computation, and companion assertions pin the qualitative shape the paper
reports (who wins, how trends move).  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import layer_qkv as capture_layer_qkv
from repro.model import build_model
from repro.tasks import make_needle_case


@pytest.fixture(scope="session")
def glm_mini():
    return build_model("glm-mini")


@pytest.fixture(scope="session")
def intern_mini():
    return build_model("intern-mini")


@pytest.fixture(scope="session")
def needle_1k():
    return make_needle_case(1024, 0.5, rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def layer_qkv(glm_mini, needle_1k):
    """Layer-1 ``(q, k, v, scale)`` of glm-mini on a 1K needle prompt, as
    its forward pass computes them."""
    return capture_layer_qkv(glm_mini, needle_1k.prompt)[1]
