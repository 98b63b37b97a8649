"""Latency predictions: attention latency, sampling overhead, TTFT.

Combines the kernel cost accounting (:mod:`repro.perf.costmodel`) with the
roofline hardware model to regenerate the paper's speed results:

* Figure 5a -- per-layer-stack attention latency, SDPA vs FlashAttention2
  vs SampleAttention(alpha);
* Figure 5b -- fraction of SampleAttention time spent sampling;
* Figure 5c / Figure 6b -- TTFT vs sequence length;
* Figure 6a -- attention latency scaled to 1M tokens;
* Table 4 -- TTFT breakdown and the attention share of prefill.

Absolute milliseconds depend on kernel engineering we cannot reproduce
without the authors' GPUs; the model is calibrated so the *shape* -- who
wins, crossover lengths, how speedup grows with S -- matches the paper
(EXPERIMENTS.md tracks predicted vs reported numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .costmodel import (
    ArchSpec,
    KernelCost,
    SampleCostCurve,
    SparsityScalingModel,
    attention_cost,
    linear_cost,
    sampling_cost,
)
from .hardware import A100_80GB, HardwareSpec

__all__ = [
    "AttentionLatency",
    "LatencyModel",
    "METHODS",
    "executed_elements_seconds",
]

METHODS = ("sdpa", "flash", "sample")


@dataclass(frozen=True)
class AttentionLatency:
    """Latency decomposition of one method's full attention stack."""

    method: str
    seconds: float
    sampling_seconds: float = 0.0

    @property
    def sampling_fraction(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.sampling_seconds / self.seconds


@dataclass(frozen=True)
class LatencyModel:
    """End-to-end prefill latency model for one architecture + device.

    Parameters
    ----------
    arch, hardware:
        What runs and where.
    sparsity:
        Achieved-sparsity model for SampleAttention plans; defaults to the
        paper-calibrated power law.
    tensor_parallel:
        Degree of tensor parallelism (Table 4 uses TP=4); per-kernel work
        divides by it, communication overhead is folded into efficiency.
    framework_overhead:
        Per-token non-GEMM serving overhead (scheduler, embedding, cache
        writes) calibrated against Table 4's non-attention latency.
    """

    arch: ArchSpec
    hardware: HardwareSpec = A100_80GB
    sparsity: SparsityScalingModel = field(
        default_factory=SparsityScalingModel.from_paper
    )
    sample_cost: SampleCostCurve = field(default_factory=SampleCostCurve.from_paper)
    tensor_parallel: int = 1
    framework_overhead_per_token: float = 2.0e-6
    sampling_occupancy_length: int = 32768

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigError("tensor_parallel must be >= 1")

    # ------------------------------------------------------------ kernels
    def _stack_seconds(self, cost: KernelCost) -> float:
        """Time for one layer's kernel cost replicated over all layers."""
        per_layer = self.hardware.kernel_seconds(
            cost.flops / self.tensor_parallel,
            cost.bytes_moved / self.tensor_parallel,
        ) + self.hardware.kernel_overhead * (cost.n_kernels - 1)
        return per_layer * self.arch.n_layers

    def attention_latency(
        self,
        s: int,
        method: str,
        *,
        alpha: float = 0.95,
        r_row: float = 0.05,
        r_window: float = 0.08,
        kept_fraction: float | None = None,
    ) -> AttentionLatency:
        """Latency of the attention stack (all layers) for one method.

        ``kept_fraction`` overrides the sparsity model (used when billing a
        measured substrate plan instead of the paper calibration).
        """
        if method == "sdpa":
            cost = attention_cost(self.arch, s, kernel="sdpa")
            return AttentionLatency("sdpa", self._stack_seconds(cost))
        if method == "flash":
            cost = attention_cost(self.arch, s, kernel="flash")
            return AttentionLatency("flash", self._stack_seconds(cost))
        if method == "sample":
            flash_seconds = self._stack_seconds(
                attention_cost(self.arch, s, kernel="flash")
            )
            # The fused sampling pass underutilises the device at short
            # lengths (few sampled rows per SM) -- the reason the paper sees
            # no advantage below ~16K; its share of time shrinks as S grows.
            occupancy = 1.0 + self.sampling_occupancy_length / max(s, 1)
            sampling_seconds = (
                self._stack_seconds(sampling_cost(self.arch, s, r_row)) * occupancy
            )
            if kept_fraction is not None:
                # Measured plan: bill the striped kernel directly.
                sparse = attention_cost(
                    self.arch, s, kept_fraction=kept_fraction, kernel="striped"
                )
                total = self._stack_seconds(sparse) + sampling_seconds
            else:
                # Paper-anchored plan-cost curve (sampling included in the
                # anchors; decompose so the Fig 5b breakdown stays visible).
                total = flash_seconds * self.sample_cost.cost_ratio(s, alpha)
                total = max(total, sampling_seconds)
            return AttentionLatency(
                "sample",
                total,
                sampling_seconds=min(sampling_seconds, total),
            )
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")

    # ---------------------------------------------------------------- TTFT
    def ttft(
        self,
        s: int,
        method: str,
        *,
        alpha: float = 0.95,
        r_row: float = 0.05,
        r_window: float = 0.08,
    ) -> float:
        """Time to first token: attention stack + linear stack + overheads."""
        attn = self.attention_latency(
            s, method, alpha=alpha, r_row=r_row, r_window=r_window
        ).seconds
        linear = self._stack_seconds(linear_cost(self.arch, s))
        return attn + linear + self.framework_overhead_per_token * s

    def decode_latency(self, s: int) -> float:
        """Per-token decode latency with a cache of ``s`` entries.

        Batch-1 decoding is memory-bound: every step streams the full
        weight set plus the KV cache once.
        """
        if s < 0:
            raise ConfigError(f"s must be >= 0, got {s}")
        arch = self.arch
        weight_bytes = float(
            arch.n_layers
            * (
                arch.d_model * arch.d_head * (arch.n_heads + 2 * arch.n_kv_heads)
                + arch.d_head * arch.n_heads * arch.d_model
                + 3 * arch.d_model * arch.d_ffn
            )
            * arch.dtype_bytes
        )
        kv_bytes = float(
            arch.n_layers
            * 2
            * s
            * arch.d_head
            * arch.n_kv_heads
            * arch.dtype_bytes
        )
        flops = 2.0 * weight_bytes / arch.dtype_bytes  # 2 FLOPs per weight
        per_layer_kernels = 8
        seconds = self.hardware.kernel_seconds(
            flops / self.tensor_parallel,
            (weight_bytes + kv_bytes) / self.tensor_parallel,
        )
        return seconds + self.hardware.kernel_overhead * per_layer_kernels * (
            self.arch.n_layers - 1
        )

    def attention_share(self, s: int, method: str = "flash", **kw) -> float:
        """Fraction of TTFT spent in attention (Table 4's last column)."""
        attn = self.attention_latency(s, method, **kw).seconds
        return attn / self.ttft(s, method, **kw)

    def speedup_vs_flash(self, s: int, *, alpha: float = 0.95, **kw) -> float:
        """SampleAttention's attention-stack speedup over FlashAttention."""
        flash = self.attention_latency(s, "flash").seconds
        sample = self.attention_latency(s, "sample", alpha=alpha, **kw).seconds
        return flash / sample

    def ttft_speedup_vs_flash(self, s: int, *, alpha: float = 0.95, **kw) -> float:
        return self.ttft(s, "flash") / self.ttft(s, "sample", alpha=alpha, **kw)


def executed_elements_seconds(
    n_elements: float,
    d_head: int,
    hardware: HardwareSpec = A100_80GB,
    *,
    dtype_bytes: int = 2,
    n_kernels: int = 1,
) -> float:
    """Roofline seconds for a kernel that computed ``n_elements`` scores.

    Deterministic billing for *executed* sparse/dense kernels: the serving
    engine's ``billing="roofline"`` clock converts the exact score-element
    counts its kernels report (``PackedPrefillResult.computed_elements``,
    or the causal count for dense chunks) into virtual seconds on
    ``hardware``.  Each score element costs ``4 * d_head`` FLOPs (the QK dot
    product and the PV accumulation) and streams roughly one K and one V
    row's share of bytes; the roofline max of the two plus launch overhead
    matches how :class:`LatencyModel` bills analytic kernel costs, so
    engine-executed and simulator-predicted latencies live on the same
    scale.
    """
    if n_elements < 0:
        raise ConfigError(f"n_elements must be >= 0, got {n_elements}")
    if d_head < 1:
        raise ConfigError(f"d_head must be >= 1, got {d_head}")
    if n_kernels < 1:
        raise ConfigError(f"n_kernels must be >= 1, got {n_kernels}")
    flops = 4.0 * n_elements * d_head
    bytes_moved = 2.0 * n_elements * d_head * dtype_bytes
    return (
        hardware.kernel_seconds(flops, bytes_moved)
        + hardware.kernel_overhead * (n_kernels - 1)
    )


def series(values, fn) -> np.ndarray:
    """Convenience: vectorise a scalar latency function over lengths."""
    return np.asarray([fn(int(v)) for v in values])
