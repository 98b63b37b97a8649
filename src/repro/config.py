"""Configuration objects shared across the library.

The central object is :class:`SampleAttentionConfig`, which holds the three
hyperparameters the paper tunes offline (Table 1):

* ``alpha`` -- the desired CRA (cumulative residual attention) threshold.
* ``r_row`` -- the fraction of query rows sampled in stage 1.
* ``r_window`` -- the local-window width as a fraction of sequence length.

plus kernel-level knobs (block size, sink width) that the paper fixes in its
implementation section.  Every field is validated eagerly in ``__post_init__``
so invalid settings fail at construction time, not deep inside a kernel.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "PLAN_PROVIDER_NAMES",
    "SampleAttentionConfig",
    "DEFAULT_CONFIG",
]

#: Which pattern planner produces the :class:`~repro.core.SparsePlan` a
#: config executes.  ``"sample"`` is the paper's two-stage SampleAttention
#: planner; ``"minference"`` profiles each head offline into a static
#: pattern class (A-shape / vertical-slash / block, MInference 1.0) and
#: only re-indexes the dynamic offsets at serving time; ``"vertical_slash"``
#: is the AnchorAttention/VSPrefill-style difference-aware vertical +
#: slash planner.  Implementations live in :mod:`repro.core.providers`;
#: the names are defined here so config validation stays import-cycle
#: free.
PLAN_PROVIDER_NAMES = ("sample", "minference", "vertical_slash")


def _check_unit_interval(name: str, value: float, *, open_left: bool = True) -> None:
    low_ok = value > 0.0 if open_left else value >= 0.0
    if not (low_ok and value <= 1.0):
        bound = "(0, 1]" if open_left else "[0, 1]"
        raise ConfigError(f"{name} must lie in {bound}, got {value!r}")


@dataclass(frozen=True)
class SampleAttentionConfig:
    """Hyperparameters of SampleAttention (paper Table 1 plus kernel knobs).

    Parameters
    ----------
    alpha:
        CRA threshold in ``(0, 1]``.  Larger values retain more key/value
        columns (more accurate, slower).  The paper profiles ``0.95``.
    r_row:
        Stage-1 query sampling ratio in ``(0, 1]``.  The paper uses ``0.05``.
    r_window:
        Local-window width as a fraction of the key sequence length,
        in ``[0, 1]``.  The paper uses ``0.08`` (8%).
    block_size:
        Tile edge of the block-sparse kernel.  The structured mask is
        materialised at this granularity; must be a positive power of two.
    sink_tokens:
        Number of initial key positions always retained (attention sinks).
        StreamingLLM-style safety net; stage 2 usually re-discovers them.
    min_keep:
        Lower bound on the number of key columns stage 2 may select per
        head, preventing degenerate empty stripe sets on tiny inputs.
    dense_last_rows:
        Number of trailing query rows that attend densely ("bottom area"
        in the paper's Figure 3).  ``0`` disables the region; the local
        window already covers the recent context of those rows.
    provider:
        Which plan provider produces the :class:`~repro.core.SparsePlan`
        this config executes: one of :data:`PLAN_PROVIDER_NAMES`.
        ``"sample"`` (default) is the paper's two-stage planner; the
        alternatives come from the related work and flow through the same
        plan/execute/cache machinery (see ``docs/PROVIDERS.md``).
    """

    alpha: float = 0.95
    r_row: float = 0.05
    r_window: float = 0.08
    block_size: int = 64
    sink_tokens: int = 4
    min_keep: int = 1
    dense_last_rows: int = 0
    provider: str = "sample"

    def __post_init__(self) -> None:
        _check_unit_interval("alpha", self.alpha)
        _check_unit_interval("r_row", self.r_row)
        _check_unit_interval("r_window", self.r_window, open_left=False)
        if self.block_size < 1 or (self.block_size & (self.block_size - 1)) != 0:
            raise ConfigError(
                f"block_size must be a positive power of two, got {self.block_size!r}"
            )
        if self.sink_tokens < 0:
            raise ConfigError(f"sink_tokens must be >= 0, got {self.sink_tokens!r}")
        if self.min_keep < 0:
            raise ConfigError(f"min_keep must be >= 0, got {self.min_keep!r}")
        if self.dense_last_rows < 0:
            raise ConfigError(
                f"dense_last_rows must be >= 0, got {self.dense_last_rows!r}"
            )
        if self.provider not in PLAN_PROVIDER_NAMES:
            raise ConfigError(
                f"provider must be one of {PLAN_PROVIDER_NAMES}, "
                f"got {self.provider!r}"
            )

    def window_size(self, seq_len: int) -> int:
        """Concrete window width ``ceil(r_window * seq_len)`` for a request,
        clamped to ``>= 1`` for non-empty sequences: every consumer of the
        window (:func:`repro.attention.window_block_mask`,
        :meth:`repro.core.SparsePlan.validate`) requires a band at least one
        token wide, so ``r_window = 0`` means "diagonal only", not "no
        window"."""
        if seq_len < 0:
            raise ConfigError(f"seq_len must be >= 0, got {seq_len!r}")
        if seq_len == 0:
            return 0
        return max(1, int(math.ceil(self.r_window * seq_len)))

    def replace(self, **changes: object) -> "SampleAttentionConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_CONFIG = SampleAttentionConfig()
"""The paper's profiled setting: alpha=0.95, r_row=5%, r_window=8%."""
