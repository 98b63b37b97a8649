"""The engine's constructor surface: one sparse executor, no dead knobs.

``execution`` / ``kernel_mode`` survive only as inert compatibility
arguments for the frozen ``perfbench/adapter.py``; the full list of what a
caller can set lives in ``tests/test_settings_budget.py``, so adding or
resurrecting a knob fails loudly.
"""

import inspect

import pytest

from repro.errors import ConfigError
from repro.serving import ServingEngine
from tests.conftest import perfbench_adapter


def test_keyword_set_is_the_documented_one():
    params = inspect.signature(ServingEngine.__init__).parameters
    keywords = [
        name for name, p in params.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert list(params)[:2] == ["self", "model"]
    doc = inspect.getdoc(ServingEngine)
    for name in keywords:
        assert name in doc


@pytest.mark.parametrize(
    "kw",
    [{}, {"execution": "block"}, {"kernel_mode": "fast"},
     {"execution": None, "kernel_mode": None},
     {"execution": "block", "kernel_mode": "fast"}],
)
def test_compat_arguments_accept_the_one_executor(glm_mini, kw):
    ServingEngine(glm_mini, **kw)


@pytest.mark.parametrize(
    "kw",
    [{"execution": "striped"}, {"kernel_mode": "reference"},
     {"kernel_mode": "parallel"},
     {"execution": "striped", "batching": "packed"}],
)
def test_compat_arguments_reject_every_other_value(glm_mini, kw):
    with pytest.raises(ConfigError):
        ServingEngine(glm_mini, **kw)


def test_perfbench_engine_configs_construct(glm_mini):
    configs = perfbench_adapter().ENGINE_CONFIG
    assert set(configs) == {
        "prefill_long", "prefill_long_dense", "decode_heavy", "serving_mix"
    }
    for kwargs in configs.values():
        ServingEngine(glm_mini, prompt_builder=lambda r, n: None, **kwargs)
