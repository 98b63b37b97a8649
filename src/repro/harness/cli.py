"""Command-line interface: ``sampleattn <experiment> [--full] [--seed N]``.

Also runnable as ``python -m repro.harness``.  ``sampleattn all`` runs every
registered experiment (the full reproduction pass) and can write a combined
Markdown report with ``--out``.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..errors import ConfigError
from .experiments import EXPERIMENTS, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sampleattn",
        description="SampleAttention reproduction harness: regenerate any "
        "table or figure of the paper.",
    )
    p.add_argument(
        "experiment",
        help="experiment id (e.g. table2, fig5) or 'all' / 'list'",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="run the larger paper-scale grid (slower)",
    )
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument(
        "--out",
        type=str,
        default=None,
        help="also write results as Markdown to this file",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        for exp_id, (_, desc) in sorted(EXPERIMENTS.items()):
            print(f"{exp_id:10s} {desc}")
        return 0

    exp_ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    scale = "full" if args.full else "quick"

    md_parts: list[str] = []
    for exp_id in exp_ids:
        t0 = time.perf_counter()
        try:
            tables = run_experiment(exp_id, scale=scale, seed=args.seed)
        except ConfigError as exc:
            print(f"{exc}; try 'list'", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - t0
        for table in tables:
            print(table)
            print()
            md_parts.append(table.to_markdown())
        print(f"[{exp_id} done in {elapsed:.1f}s]\n")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(md_parts) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
