"""Seed-budgeted fuzz campaign behind ``sampleattn audit``.

Runs the :mod:`~repro.audit.geometry` fuzzer over every audit area with
runtime contracts (:mod:`~repro.audit.contracts`) enabled and writes
``AUDIT.json``:

* ``schema`` ``"sampleattn-audit/v1"``;
* per-area pass/fail counts and the worst divergence observed, plus how
  many checks were bitwise alone-vs-in-batch comparisons
  (``invariance_checks``), how many executed a plan with non-empty
  ``extras["bands"]`` (``banded_checks``), how many executed an item
  whose rows are all dense last rows (``dense_checks``, the shape of
  :func:`~repro.attention.flash.flash_attention`) and how many ran a
  decode item of serving length, >= 1024 keys (``long_decode_checks``)
  -- CI asserts each is non-zero where it applies, so no path can go
  green by not running;
* up to eight failing cases per area as re-runnable counterexamples
  (``GeometryCase`` fields + divergence + detail): the fields fully
  determine a case, so ``run_case(GeometryCase(**fields), area)``
  reproduces it;
* contract-check and contract-violation totals.

Environment knobs (used by the CI ``audit-smoke`` job):

* ``SAMPLEATTN_AUDIT_OUT`` -- output path (default ``AUDIT.json`` in the
  current directory; ``""`` disables writing).

The campaign *fails* (:class:`~repro.errors.ReproError`) on any divergence
above the 2e-5 tolerance or any contract violation -- there is no
non-enforcing mode, because a divergence at any fuzzed geometry invalidates
the near-losslessness accounting everywhere.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractViolation, ReproError
from ..harness.tables import Table
from . import contracts
from .geometry import AUDIT_AREAS, GeometryCase, run_case, sample_cases
from .oracles import TOLERANCE, CaseResult

__all__ = [
    "AUDIT_SCHEMA",
    "AreaReport",
    "run_audit",
    "run_audit_experiment",
]

AUDIT_SCHEMA = "sampleattn-audit/v1"

#: Default campaign: geometries per seed x seeds.  Two seeds at 256 cases
#: give 512 fuzzed geometries -- the floor the acceptance criteria set is
#: 500 -- each cross-checked in every area.
DEFAULT_BUDGET = 256
DEFAULT_SEEDS = (0, 1)

#: Per-area cap on the counterexamples (and contract-violation messages)
#: kept in the report; beyond it failures are still counted.
MAX_COUNTEREXAMPLES = 8


@dataclass
class AreaReport:
    """Aggregated outcome of one audit area across the campaign."""

    area: str
    cases: int = 0
    passed: int = 0
    failed: int = 0
    checks: int = 0
    invariance_checks: int = 0
    banded_checks: int = 0
    dense_checks: int = 0
    long_decode_checks: int = 0
    worst_divergence: float = 0.0
    counterexamples: list[dict] = field(default_factory=list)

    def record(self, case: GeometryCase, result: CaseResult) -> None:
        self.cases += 1
        for name, n in result.counters().items():
            setattr(self, name, getattr(self, name) + n)
        if np.isfinite(result.divergence):
            self.worst_divergence = max(self.worst_divergence, result.divergence)
        if result.passed:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
                self.counterexamples.append(
                    {
                        "case": case.describe(),
                        "divergence": result.divergence,
                        "detail": result.detail,
                    }
                )


def run_audit(
    *,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budget: int = DEFAULT_BUDGET,
    areas: tuple[str, ...] = AUDIT_AREAS,
    out_path: str | os.PathLike | None = None,
) -> dict:
    """Run the fuzz campaign and write ``AUDIT.json``.

    Parameters
    ----------
    seeds:
        Campaign seeds; each contributes ``budget`` independent geometries.
    budget:
        Fuzzed geometries per seed.
    areas:
        Subset of :data:`~repro.audit.geometry.AUDIT_AREAS` to cross-check.
    out_path:
        Report destination; defaults to ``$SAMPLEATTN_AUDIT_OUT`` or
        ``AUDIT.json``.  ``""`` disables writing.

    Raises
    ------
    ReproError
        After writing the report, when any area diverged beyond the 2e-5
        tolerance or any contract violation was observed.
    """
    unknown = set(areas) - set(AUDIT_AREAS)
    if unknown:
        raise ReproError(f"unknown audit areas: {sorted(unknown)}")
    if out_path is None:
        out_path = os.environ.get("SAMPLEATTN_AUDIT_OUT", "AUDIT.json")

    reports = {area: AreaReport(area) for area in areas}
    violations: list[str] = []
    checks_before = contracts.checks_run()

    with contracts.contracts(True):
        for seed in seeds:
            for case in sample_cases(seed, budget):
                for area in areas:
                    try:
                        result = run_case(case, area)
                    except ContractViolation as exc:
                        violations.append(f"{area}: {exc}")
                        result = CaseResult(
                            area, False, float("inf"), f"contract: {exc}"
                        )
                    reports[area].record(case, result)

    n_geometries = len(seeds) * budget
    worst = max(
        (r.worst_divergence for r in reports.values()), default=0.0
    )
    failed = sum(r.failed for r in reports.values())
    passed = failed == 0 and not violations

    report = {
        "schema": AUDIT_SCHEMA,
        "seeds": list(seeds),
        "budget": budget,
        "tolerance": TOLERANCE,
        "n_geometries": n_geometries,
        "total_checks": sum(r.checks for r in reports.values()),
        "contract_checks": contracts.checks_run() - checks_before,
        "contract_violations": len(violations),
        "contract_violation_messages": violations[:MAX_COUNTEREXAMPLES],
        "worst_divergence": worst,
        "failed_cases": failed,
        "passed": passed,
        "numpy": np.__version__,
        "areas": {area: dataclasses.asdict(reports[area]) for area in areas},
    }
    out_file = Path(out_path) if out_path else None
    if out_file is not None:
        out_file.write_text(
            json.dumps(report, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    if not passed:
        where = ", ".join(
            f"{r.area}: {r.failed}/{r.cases} failed"
            for r in reports.values()
            if r.failed
        )
        first = next(r for r in reports.values() if r.counterexamples)
        raise ReproError(
            "audit campaign failed "
            f"({failed} diverging cases [{where or 'none'}], "
            f"{len(violations)} contract violations, "
            f"worst divergence {worst:.2e} vs tolerance {TOLERANCE:.0e}); "
            f"first: run_case(GeometryCase(**{first.counterexamples[0]['case']}), "
            f"{first.area!r}); see {out_file or 'the returned report'} for "
            "the rest"
        )
    return report


def run_audit_experiment(scale="quick", seed: int = 0) -> list[Table]:
    """``sampleattn audit``: the differential fuzz campaign as tables."""
    scale_name = scale if isinstance(scale, str) else scale.name
    if scale_name == "full":
        seeds = tuple(seed + i for i in range(4))
        budget = 512
    else:
        seeds = (seed, seed + 1)
        budget = DEFAULT_BUDGET
    report = run_audit(seeds=seeds, budget=budget)

    table = Table(
        "Differential audit: fuzzed geometries vs the masked-dense oracle",
        ["area", "cases", "passed", "failed", "checks", "worst_divergence"],
        notes=(
            f"{report['n_geometries']} fuzzed geometries (seeds "
            f"{report['seeds']}, budget {report['budget']}/seed), tolerance "
            f"{report['tolerance']:.0e}; contracts: "
            f"{report['contract_checks']} checks, "
            f"{report['contract_violations']} violations. JSON written to "
            + (os.environ.get("SAMPLEATTN_AUDIT_OUT") or "AUDIT.json")
        ),
    )
    for area in report["areas"].values():
        table.add_row(
            area["area"],
            area["cases"],
            area["passed"],
            area["failed"],
            area["checks"],
            f"{area['worst_divergence']:.1e}",
        )
    return [table]
