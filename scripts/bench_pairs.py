#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end workload, or of all.

    python3 scripts/bench_pairs.py --parent /root/scratch/parent --change . \\
        --workload write_local --seed 7 --pairs 10 --claim stmts_per_s
    python3 scripts/bench_pairs.py --parent /root/scratch/parent --change . \\
        --workload all --seed 7 --pairs 10 --claim stmts_per_s@analytic_local

``--workload all`` runs the workloads of ``BENCHMARK.json`` in its order,
one after the other, and prints one verdict table per workload plus a
final line; the claim then names its workload (``METRIC@WORKLOAD``), and
every other workload is judged for regressions only.

Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds T
--trace 0`` once from each checkout — every run builds what it measures
from its own ``src/`` — alternating which side goes first, because this
box flips between two CPU speeds and a fixed order would hand one side
the faster half.  Nothing under ``benchmarks/e2e`` is edited; the
metric names, directions and bounds are read from the change checkout's
``BENCHMARK.json``.

Printed per end-to-end metric: each side's median and quartiles, the
pairs the change won, and a verdict by the rule of the choosing-metrics
guide, section 8:

* for the metric named by ``--claim``: ``gain`` when the change wins at
  least nine tenths of the pairs (ties count for neither side) **and**
  the medians differ by more than the distance between the parent's own
  quartiles; otherwise ``claim not met``;
* for every other metric: ``ok`` when the change's median is no worse
  than the parent's by more than the metric's bound, ``regressed`` when
  it is, ``unresolved`` when either side's own quartile spread is wider
  than the bound.

A run that fails an operation or differs from the sqlite oracle is
reported and makes the exit status non-zero, as does a regression or an
unmet claim on any workload.  ``--json FILE`` writes every run's numbers,
keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, args: argparse.Namespace) -> dict:
    """One contract-mode run from *checkout*; its last stdout line."""
    command = [
        sys.executable,
        os.path.join("benchmarks", "e2e", "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"no output from {checkout} (exit {done.returncode}):\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def judge(metric: dict, parent: list[float], change: list[float], claimed: bool):
    """``(pairs won, pairs lost, verdict)`` for one metric."""
    higher = metric["better"] == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    p_q1, p_mid, p_q3 = quartiles(parent)
    c_q1, c_mid, c_q3 = quartiles(change)
    if claimed:
        better = c_mid > p_mid if higher else c_mid < p_mid
        met = (
            won >= 0.9 * len(parent)
            and better
            and abs(c_mid - p_mid) > (p_q3 - p_q1)
        )
        return won, lost, "gain" if met else "claim not met"
    bound = metric["bound"]
    spreads = [
        (q3 - q1) / mid if mid else 0.0
        for q1, mid, q3 in ((p_q1, p_mid, p_q3), (c_q1, c_mid, c_q3))
    ]
    if max(spreads) > bound:
        return won, lost, "unresolved"
    worse = (p_mid - c_mid) if higher else (c_mid - p_mid)
    regressed = p_mid and worse / p_mid > bound
    return won, lost, "regressed" if regressed else "ok"


def run_workload(
    workload: str,
    claim: str | None,
    metrics: list[dict],
    sides: dict[str, str],
    args: argparse.Namespace,
) -> tuple[dict[str, list[dict]], list[str]]:
    """All pairs of one workload and its verdict table.

    Returns every run's numbers and the findings that fail the whole
    invocation (regressions, an unmet claim, incorrect runs).
    """
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, args)
            runs[side].append(result)
            shown = "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics
            )
            print(f"pair {pair + 1:2d} {side:6s} {shown}", flush=True)

    print(f"\n{workload}  seed {args.seed}  {args.seconds} s  {args.pairs} pairs")
    print(f"{'metric':14s} {'side':6s} {'q1':>10s} {'median':>10s} {'q3':>10s}"
          f"  won/lost  verdict")
    findings = []
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]]
            for side in sides
        }
        won, lost, verdict = judge(
            metric, values["parent"], values["change"], name == claim
        )
        if verdict in ("regressed", "claim not met"):
            findings.append(f"{name}@{workload} {verdict}")
        for side in sides:
            q1, mid, q3 = quartiles(values[side])
            tail = f"  {won:2d}/{lost:<2d}    {verdict}" if side == "change" else ""
            print(f"{name:14s} {side:6s} {q1:10.4g} {mid:10.4g} {q3:10.4g}{tail}")
    for side in sides:
        bad = [r for r in runs[side] if r["failed"] or not r["correct"] or r["exit"]]
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {attempted} operations attempted, "
              f"{sum(r['failed'] for r in runs[side])} failed, "
              f"{len(bad)} of {len(runs[side])} runs incorrect")
        if bad:
            findings.append(f"{len(bad)} incorrect {side} run(s)@{workload}")
    return runs, findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run alternating parent/change pairs of one e2e workload "
        "(or of all of them) and judge them by the choosing-metrics rule "
        "(section 8).",
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout of the change (default: .)")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in order")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, metavar="METRIC[@WORKLOAD]",
                        help="the end-to-end metric the change claims to improve; "
                        "@WORKLOAD is required when more than one workload runs")
    parser.add_argument("--json", default=None, help="write every run's numbers here")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    claim_metric, _, claim_workload = (args.claim or "").partition("@")
    if args.claim:
        if claim_metric not in {m["name"] for m in metrics}:
            parser.error(f"--claim must be one of {[m['name'] for m in metrics]}")
        if not claim_workload and len(workloads) > 1:
            parser.error("--claim needs METRIC@WORKLOAD when more than one workload runs")
        claim_workload = claim_workload or workloads[0]
        if claim_workload not in workloads:
            parser.error(f"--claim names a workload that does not run: {claim_workload}")

    sides = {"parent": args.parent, "change": args.change}
    all_runs: dict[str, dict[str, list[dict]]] = {}
    findings: list[str] = []
    for index, workload in enumerate(workloads):
        if index:
            print()
        claim = claim_metric if workload == claim_workload else None
        all_runs[workload], found = run_workload(workload, claim, metrics, sides, args)
        findings += found
    if len(workloads) > 1:
        clean = "no regression, no incorrect run" + (
            f", {args.claim} gain" if args.claim else ""
        )
        print(f"\n{len(workloads)} workloads: {'; '.join(findings) or clean}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"args": vars(args), "runs": all_runs}, handle, indent=1)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
