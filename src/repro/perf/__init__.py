"""Performance model: A100 roofline, kernel cost accounting, sparsity
scaling, and TTFT prediction (paper Section 5.4 and Appendix Table 4).

Public API::

    from repro.perf import (
        HardwareSpec, A100_80GB,
        ArchSpec, CHATGLM2_6B, INTERNLM2_7B,
        attention_cost, sampling_cost, linear_cost,
        SparsityScalingModel, LatencyModel,
    )
"""

from .calibrate import (
    fit_sparsity_from_measurements,
    measured_speedup,
)
from .costmodel import (
    CHATGLM2_6B,
    INTERNLM2_7B,
    PAPER_TABLE5_KEPT,
    ArchSpec,
    KernelCost,
    SampleCostCurve,
    SparsityScalingModel,
    attention_cost,
    linear_cost,
    sampling_cost,
)
from .hardware import A100_80GB, HardwareSpec
from .latency import (
    METHODS,
    AttentionLatency,
    LatencyModel,
    executed_elements_seconds,
)

__all__ = [
    "fit_sparsity_from_measurements",
    "measured_speedup",
    "HardwareSpec",
    "A100_80GB",
    "ArchSpec",
    "CHATGLM2_6B",
    "INTERNLM2_7B",
    "KernelCost",
    "attention_cost",
    "sampling_cost",
    "linear_cost",
    "SparsityScalingModel",
    "SampleCostCurve",
    "PAPER_TABLE5_KEPT",
    "LatencyModel",
    "AttentionLatency",
    "METHODS",
    "executed_elements_seconds",
]
