"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything emitted by this package with a single ``except`` clause
while still receiving ordinary ``ValueError``/``TypeError`` semantics from
``isinstance`` checks (each subclass also inherits from the closest builtin).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "ConfigError",
    "MaskError",
    "ModelError",
    "TaskError",
    "ProfilingError",
    "FaultInjectionError",
    "ContractViolation",
    "ArenaExhaustedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ShapeError(ReproError, ValueError):
    """An array argument had an unexpected shape or rank."""


class ConfigError(ReproError, ValueError):
    """A configuration value is out of its documented domain."""


class MaskError(ReproError, ValueError):
    """An attention mask is malformed (wrong dtype, non-causal, empty rows)."""


class ModelError(ReproError, RuntimeError):
    """The transformer substrate was used inconsistently."""


class TaskError(ReproError, ValueError):
    """A task generator received invalid parameters."""


class ProfilingError(ReproError, RuntimeError):
    """Offline hyperparameter profiling could not find a feasible setting."""


class FaultInjectionError(ReproError, RuntimeError):
    """An injected (or genuinely transient) serving-time failure.

    Raised by the fault-injection harness to simulate transient kernel or
    planning failures; the serving engine's bounded-retry policy treats any
    ``FaultInjectionError`` escaping a prefill chunk as retryable.
    """


class ArenaExhaustedError(ReproError, MemoryError):
    """The paged KV arena has no free blocks left.

    Raised by :meth:`repro.memory.KVArena.alloc` when every block is in
    use (or reserved by an injected arena-exhaustion fault).  The serving
    engine treats this as the memory-pressure analogue of a transient
    fault: it rolls the in-flight quantum back, runs the pressure ladder
    (registry shrink -> shed), and
    retries under a bounded budget.
    """


class ContractViolation(ReproError, AssertionError):
    """A runtime invariant contract (:mod:`repro.audit.contracts`) failed.

    Only raised when contracts are explicitly enabled (opt-in via
    ``SAMPLEATTN_CONTRACTS=1`` or :func:`repro.audit.contracts.enable`);
    production paths never pay for or raise these checks by default.
    """
