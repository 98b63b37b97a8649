"""Opt-in runtime invariant contracts for the attention pipeline.

The load-bearing invariants of the reproduction -- the ones every accuracy
table silently assumes -- are asserted *in place* by hooks planted at the
six spots where a violation would corrupt results without crashing:

* :func:`check_selection` (stage 2, :func:`repro.core.select_kv_indices`):
  ``I_KV`` sorted / unique / in-range and ``achieved_share >= alpha`` after
  filtering (dead heads excepted -- they honestly report ``0.0``).
* :func:`check_plan` (:func:`repro.core.plan_sample_attention`): the
  assembled :class:`~repro.core.SparsePlan` is structurally executable and
  its accounting is finite and consistent.
* :func:`check_merged_mask` (:meth:`repro.core.SparsePlan.to_block_mask`):
  the merged window ∪ stripe ∪ sink ∪ bottom-area tile mask covers the whole
  window band and leaves no causally valid query row empty.
* :func:`check_computed_elements` (the serving engine, after each packed
  prefill dispatch): the score elements the kernel kept live equal the
  plan's own :meth:`~repro.core.SparsePlan.element_counts` exactly,
  ``extras["bands"]`` included.
* :func:`check_no_alias` (:func:`repro.attention.fast_block_sparse_attention`):
  the fast path's output and workspace buffers never alias the caller's
  q/k/v arrays (an aliased scratch buffer would corrupt inputs mid-call).
* :func:`check_counter_increment` (:meth:`MetricsRegistry.inc`): telemetry
  counters are monotone -- negative increments are rejected.

Contracts are **off by default** and cost one predicate test per call site
when disabled.  Enable them for a process with ``SAMPLEATTN_CONTRACTS=1``
in the environment, or programmatically::

    from repro.audit import contracts
    contracts.enable()            # process-wide
    with contracts.contracts():   # scoped
        ...

Violations raise :class:`repro.errors.ContractViolation` (an
``AssertionError`` subclass) at the faulty call, not at some downstream
consumer.  ``sampleattn audit`` runs its whole fuzz campaign with contracts
enabled and reports the number of checks executed and violations seen.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..errors import ContractViolation

if TYPE_CHECKING:  # imported lazily to keep this module dependency-free
    from ..attention.utils import KernelWorkspace
    from ..attention.masks import BlockMask
    from ..core.plan import SparsePlan

__all__ = [
    "ContractViolation",
    "enabled",
    "enable",
    "disable",
    "contracts",
    "checks_run",
    "check_selection",
    "check_plan",
    "check_merged_mask",
    "check_computed_elements",
    "check_no_alias",
    "check_counter_increment",
]

#: Slack below ``alpha`` tolerated by the share contract; matches the
#: serving engine's runtime CRA guard epsilon.
ALPHA_EPS = 1e-6

_TRUTHY = ("1", "true", "on", "yes")

_enabled: bool = (
    os.environ.get("SAMPLEATTN_CONTRACTS", "").strip().lower() in _TRUTHY
)
_checks_run: int = 0


def enabled() -> bool:
    """Whether contract checks currently execute (the hooks' fast guard)."""
    return _enabled


def enable() -> None:
    """Turn contract checking on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn contract checking off process-wide."""
    global _enabled
    _enabled = False


@contextmanager
def contracts(flag: bool = True) -> Iterator[None]:
    """Scoped enable/disable; restores the previous state on exit."""
    global _enabled
    prev = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prev


def checks_run() -> int:
    """Total contract checks executed since import (enabled calls only)."""
    return _checks_run


def _ran() -> None:
    global _checks_run
    _checks_run += 1


def _fail(message: str) -> None:
    raise ContractViolation(message)


# --------------------------------------------------------------------------
# Checks.  Each one no-ops when contracts are disabled, so hooks may call
# them unconditionally; hot paths additionally guard with ``enabled()`` to
# skip even the function call.
# --------------------------------------------------------------------------


def check_selection(
    kv_indices: Sequence[np.ndarray],
    achieved_share: np.ndarray,
    alpha: float,
    s_k: int,
) -> None:
    """Stage-2 postconditions: ``I_KV`` sorted/unique/in-range per head and
    ``achieved_share >= alpha`` (dead heads report exactly ``0.0``)."""
    if not _enabled:
        return
    _ran()
    share = np.asarray(achieved_share, dtype=np.float64)
    if share.shape != (len(kv_indices),):
        _fail(
            f"achieved_share shape {share.shape} != head count "
            f"({len(kv_indices)},)"
        )
    for h, idx in enumerate(kv_indices):
        arr = np.asarray(idx)
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            _fail(f"head {h}: I_KV must be a 1-D integer array, got {arr.dtype}")
        if arr.size:
            if arr[0] < 0 or arr[-1] >= s_k:
                _fail(
                    f"head {h}: I_KV out of range [0, {s_k}): "
                    f"min={arr[0]}, max={arr[-1]}"
                )
            if arr.size > 1 and (np.diff(arr) <= 0).any():
                _fail(f"head {h}: I_KV not sorted strictly ascending")
        sh = float(share[h])
        if not np.isfinite(sh):
            _fail(f"head {h}: achieved_share is not finite ({sh})")
        if sh != 0.0 and sh < alpha - ALPHA_EPS:
            _fail(
                f"head {h}: achieved_share {sh:.6f} < alpha {alpha:.6f} "
                "after filtering (non-dead head)"
            )


def check_plan(plan: "SparsePlan") -> None:
    """Plan postconditions: executable geometry plus the stage-2 contract
    on the plan's own selection."""
    if not _enabled:
        return
    _ran()
    if plan.s_k >= 1 and not (1 <= plan.window <= plan.s_k):
        _fail(
            f"plan window {plan.window} outside [1, s_k={plan.s_k}]"
        )
    if plan.kv_ratio.shape != (plan.n_heads,):
        _fail(
            f"kv_ratio shape {plan.kv_ratio.shape} != ({plan.n_heads},)"
        )
    if not np.isfinite(plan.kv_ratio).all() or (plan.kv_ratio < 0).any():
        _fail("kv_ratio must be finite and non-negative")
    check_selection(
        plan.kv_indices, plan.achieved_share, plan.config.alpha, plan.s_k
    )


def check_merged_mask(plan: "SparsePlan", mask: "BlockMask") -> None:
    """Merged-mask postconditions: every element of the window band
    ``[p - window + 1, p]`` is covered, and no causally valid query row is
    left without an attendable key."""
    if not _enabled:
        return
    _ran()
    dense = mask.to_dense()
    offset = mask.s_k - mask.s_q
    rows = np.arange(mask.s_q, dtype=np.int64)[:, None] + offset
    cols = np.arange(mask.s_k, dtype=np.int64)[None, :]
    band = (cols <= rows) & (cols > rows - plan.window)
    uncovered = band[None] & ~dense
    if uncovered.any():
        h, i, j = np.argwhere(uncovered)[0]
        _fail(
            f"merged mask misses window band element: head {h}, "
            f"row {i}, col {j} (window {plan.window})"
        )
    mask.validate_causal_rows()  # raises MaskError on an empty causal row


def check_computed_elements(plan: "SparsePlan", computed: np.ndarray) -> None:
    """Packed-prefill postcondition: the kernel's per-head live score
    elements are exactly what the plan's element mask holds -- window band
    ∪ ``extras["bands"]`` ∪ causal stripes ∪ sinks ∪ dense last rows."""
    if not _enabled:
        return
    _ran()
    expected = plan.element_counts()
    if not np.array_equal(np.asarray(computed), expected):
        _fail(
            f"packed kernel computed {np.asarray(computed).tolist()} score "
            f"elements per head, plan holds {expected.tolist()}"
        )


def check_no_alias(
    output: np.ndarray,
    workspace: "KernelWorkspace | None",
    *caller_arrays: np.ndarray,
) -> None:
    """Fast-path postcondition: neither the output nor any workspace buffer
    shares memory with the caller's arrays."""
    if not _enabled:
        return
    _ran()
    for i, arr in enumerate(caller_arrays):
        if arr.size and np.shares_memory(output, arr):
            _fail(f"kernel output aliases caller array #{i}")
    if workspace is None:
        return
    for key, buf in workspace._buffers.items():
        for i, arr in enumerate(caller_arrays):
            if arr.size and np.shares_memory(buf, arr):
                _fail(f"workspace buffer {key!r} aliases caller array #{i}")
        if buf.size and np.shares_memory(buf, output):
            _fail(f"workspace buffer {key!r} aliases the kernel output")


def check_counter_increment(name: str, value: float) -> None:
    """Telemetry counters are monotone: reject negative increments."""
    if not _enabled:
        return
    _ran()
    if value < 0:
        _fail(
            f"negative increment {value!r} on monotone counter {name!r}"
        )
