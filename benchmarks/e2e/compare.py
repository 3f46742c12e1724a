#!/usr/bin/env python3
"""Compare two sets of ``result.json`` files, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py a1.json,a2.json,a3.json b1.json,b2.json,b3.json

A is the base (the parent commit), B the candidate.  A side given as
several comma-separated files is compared by the median of their values.
One row per (workload, end-to-end metric): both values, the ratio B/A
with its base, the bound from ``BENCHMARK.json``, and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   it is;
* ``unresolved``  a side's own windows (or, with several files, its own
  runs) spread wider than the bound, so the comparison cannot tell noise
  from change — lengthen the runs rather than trusting either answer.

Spread is the distance between the first and third quartile over the
median, as ``statistics.quantiles(values, n=4)`` gives them.  Exits
non-zero when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
SETUP_FLOOR_S = 0.10  # setup_s may worsen by its bound or this, whichever is larger


def load_side(argument: str) -> list[dict]:
    runs = []
    for path in argument.split(","):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle)["workloads"])
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def side_value(runs: list[dict], workload: str, metric: str) -> tuple[float, float] | None:
    """``(median value, spread)`` of one metric over a side's runs."""
    entries = [
        run[workload]["metrics"][metric]
        for run in runs
        if workload in run and metric in run[workload]["metrics"]
    ]
    if not entries:
        return None
    values = [entry["value"] for entry in entries]
    if len(values) > 1:
        return statistics.median(values), spread(values)
    return values[0], spread(entries[0].get("windows", []))


def verdict(a: float, b: float, better: str, bound: float, floor: float, noise: float) -> str:
    if noise > bound:
        return "unresolved"
    allowed = max(a * bound, floor)
    worse = b - a if better == "lower" else a - b
    return "regressed" if worse > allowed else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    side_a, side_b = load_side(argv[0]), load_side(argv[1])
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("fail_ratio", "ratio", "lower", 0.0))  # absolute: any increase regresses
    header = (
        f"{'workload':<16}{'metric':<13}{'A':>13}{'B':>13}  "
        f"{'B/A (base A)':<24}{'bound':>7}  verdict"
    )
    print(header)
    print("-" * len(header))
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for name, unit, better, bound in metrics:
            a, b = side_value(side_a, workload, name), side_value(side_b, workload, name)
            if a is None or b is None:
                continue
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            result = verdict(a[0], b[0], better, bound, floor, max(a[1], b[1]))
            regressed += result == "regressed"
            ratio = f"{b[0] / a[0]:.3f} ({a[0]:.4g} {unit})" if a[0] else "- (base 0)"
            print(
                f"{workload:<16}{name:<13}{a[0]:>13.4f}{b[0]:>13.4f}  "
                f"{ratio:<24}{bound:>7.0%}  {result}"
            )
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
