"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

The files are the ``perfbench/out/result-*-trace0.json`` records of
``run.py``.  One row per (workload, end-to-end metric): each side's median
and quartiles, B/A with A as the base, and a verdict against the bound in
``BENCHMARK.json``:

- ``unresolved``  A's own quartile spread exceeds the bound and the two sets
  overlap, so the runs cannot tell;
- ``regressed``   B's median is worse than A's by more than the bound;
- ``improved``    B wins at least nine tenths of the seed-matched pairs and
  the medians differ by more than A's quartile distance;
- ``unchanged``   otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``a`` and ``b`` are seed-matched where the sets share seeds."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: b worse
    qa1, qa2, qa3 = quartiles(a)
    qb2 = quartiles(b)[1]
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if qa2 and (qa3 - qa1) / abs(qa2) > bound and overlap:
        return "unresolved"
    if qa2 and sign * (qb2 - qa2) / abs(qa2) > bound:
        return "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(qb2 - qa2) > qa3 - qa1:
        return "improved"
    return "unchanged"


def load(paths) -> dict:
    """workload -> seed -> record"""
    out: dict = defaultdict(dict)
    for path in paths:
        record = json.loads(Path(path).read_text())
        out[record["workload"]][record["env"]["seed"]] = record
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="base set of result files")
    ap.add_argument("--b", nargs="+", required=True, help="set compared against it")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load(args.a), load(args.b)

    regressed = False
    print(f"{'workload':20s} {'metric':13s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'B/A':>7s}  verdict")
    for workload in set_a:
        if workload not in set_b:
            print(f"{workload:20s} missing from B")
            continue
        runs_a, runs_b = set_a[workload], set_b[workload]
        shared = sorted(set(runs_a) & set(runs_b))
        seeds_a = shared + sorted(set(runs_a) - set(shared))
        seeds_b = shared + sorted(set(runs_b) - set(shared))
        for m in spec["end_to_end"]:
            a = [runs_a[s]["end_to_end"][m["name"]]["value"] for s in seeds_a]
            b = [runs_b[s]["end_to_end"][m["name"]]["value"] for s in seeds_b]
            v = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            print(f"{workload:20s} {m['name']:13s} "
                  f"{f'{a2:.5g} [{a1:.5g}, {a3:.5g}]':34s} "
                  f"{f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':34s} "
                  f"{b2 / a2 if a2 else float('nan'):7.3f}  {v}")
        differ = [
            s for s in shared
            if runs_a[s]["tokens_digest"] != runs_b[s]["tokens_digest"]
        ]
        print(f"{workload:20s} tokens_digest "
              + (f"DIFFERENT for seeds {differ}" if differ
                 else f"identical for {len(shared)} shared seeds"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
