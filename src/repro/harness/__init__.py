"""Experiment harness: one declaration per paper table/figure plus a CLI.

Public API::

    from repro.harness import run_experiment, run_experiments, EXPERIMENTS, Table

CLI::

    sampleattn list              # enumerate experiments
    sampleattn table2            # regenerate Table 2
    sampleattn all --out rep.md  # everything, with a Markdown report
"""

from .experiments import (
    EXPERIMENTS,
    FULL,
    QUICK,
    ExperimentScale,
    run_experiment,
    run_experiments,
)
from .methods import METHOD_NAMES, make_backend
from .tables import Table

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "ExperimentScale",
    "QUICK",
    "FULL",
    "METHOD_NAMES",
    "make_backend",
    "Table",
]
