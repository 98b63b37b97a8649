"""Differential-testing and invariant-audit subsystem.

Three layers, all seeded and dependency-free:

* :mod:`repro.audit.contracts` -- opt-in runtime invariant contracts
  planted in the production pipeline (``SAMPLEATTN_CONTRACTS=1``).
* :mod:`repro.audit.geometry` -- a geometry fuzzer sampling adversarial
  attention-call shapes (ragged tails, chunked-prefill offsets, GQA ratios,
  empty/full stripe sets, window and ``alpha`` extremes) and cross-checking
  every kernel, the full Algorithm-1 pipeline, the serving plan-cache
  reuse chain and the one plan executor against the masked-dense oracle,
  with failing cases shrunk to a minimal counterexample.
* :mod:`repro.audit.campaign` -- the seed-budgeted fuzz campaign behind
  ``sampleattn audit``; writes ``AUDIT.json`` and fails on any divergence
  above the 2e-5 tolerance or any contract violation.

The fuzzer/campaign layers import most of the package, so they are loaded
lazily here; :mod:`~repro.audit.contracts` (imported by production hooks)
stays import-cycle free by depending only on :mod:`numpy` and
:mod:`repro.errors`.
"""

from __future__ import annotations

from . import contracts
from ..errors import ContractViolation

__all__ = [
    "contracts",
    "ContractViolation",
    "GeometryCase",
    "CaseResult",
    "AUDIT_AREAS",
    "TOLERANCE",
    "sample_case",
    "sample_cases",
    "run_case",
    "shrink_case",
    "AUDIT_SCHEMA",
    "run_audit",
    "run_audit_experiment",
]

_LAZY = {
    "GeometryCase": "geometry",
    "CaseResult": "geometry",
    "AUDIT_AREAS": "geometry",
    "TOLERANCE": "geometry",
    "sample_case": "geometry",
    "sample_cases": "geometry",
    "run_case": "geometry",
    "shrink_case": "geometry",
    "AUDIT_SCHEMA": "campaign",
    "run_audit": "campaign",
    "run_audit_experiment": "campaign",
}


def __getattr__(name: str):  # PEP 562: lazy submodule exports
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
