"""Differential-testing and invariant-audit subsystem.

Four layers, all seeded and dependency-free:

* :mod:`repro.audit.contracts` -- opt-in runtime invariant contracts
  planted in the production pipeline (``SAMPLEATTN_CONTRACTS=1``).
* :mod:`repro.audit.oracles` -- the one copy of the oracles and kernel
  contracts: the plan element mask, a hand-built plan, and one check per
  kernel contract (packed prefill, packed decode, the block kernels),
  called alike by the fuzzer, the property suites and the unit tests.
* :mod:`repro.audit.geometry` -- a geometry fuzzer sampling adversarial
  attention-call shapes (ragged tails, chunked-prefill offsets, GQA ratios,
  empty/full stripe sets, window and ``alpha`` extremes) and turning each
  into calls to those checks for every kernel, the full Algorithm-1
  pipeline, the serving plan-cache reuse chain and the one plan executor;
  a failing case is reproduced from its fields.
* :mod:`repro.audit.campaign` -- the seed-budgeted fuzz campaign behind
  ``sampleattn audit``; writes ``AUDIT.json`` and fails on any divergence
  above the 2e-5 tolerance or any contract violation.

The oracle/fuzzer/campaign layers import most of the package, so they are loaded
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
    "plan_element_mask",
    "hand_built_plan",
    "check_prefill_batch",
    "check_decode_batch",
    "check_block_kernels",
    "AUDIT_SCHEMA",
    "run_audit",
    "run_audit_experiment",
]

_LAZY = {
    "GeometryCase": "geometry",
    "CaseResult": "oracles",
    "AUDIT_AREAS": "geometry",
    "TOLERANCE": "oracles",
    "sample_case": "geometry",
    "sample_cases": "geometry",
    "run_case": "geometry",
    "plan_element_mask": "oracles",
    "hand_built_plan": "oracles",
    "check_prefill_batch": "oracles",
    "check_decode_batch": "oracles",
    "check_block_kernels": "oracles",
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
