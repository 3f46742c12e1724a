#!/usr/bin/env python3
"""One end-to-end benchmark for the four front doors.

    python3 benchmarks/e2e/run.py                      # all six workloads
    python3 benchmarks/e2e/run.py --trace              # ... plus the per-layer ledger
    python3 benchmarks/e2e/run.py --workload point_local --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --selfcheck

This process only orchestrates.  Every workload is set up and measured
in a **fresh child interpreter** (``repro.cache``, the global plan cache
and the process metrics are process-global; workloads must not warm each
other), and ``setup_s`` is timed from outside: spawn → the child's
"first timed operation" line.  Set-up runs ``SETUP_REPEATS`` times per
workload (the extra children set up and exit) and the median is reported.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every run writes ``benchmarks/e2e/out/result.json``.  Exit status is
non-zero when any operation failed or differed from the sqlite oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
WORKLOAD_TIMEOUT_S = 170  # all children of one workload run; the contract allows 180

# The package is used from the checkout, not from an installed copy.
sys.path.insert(0, os.path.join(REPO, "src"))

from workloads import WORKLOADS, build_ops, ops_digest  # noqa: E402

# name, unit, better, bound.  The timings are quoted at the reference
# speed (harness.calibrate; README, "Steadiness") and then spread 2-9 %
# between identical runs on this box, so the bound is the contract's
# maximum, near three times that.  The 95th percentile spread 28 % on
# adhoc_local, past any bound the contract allows, so by ISSUE 11's own
# rule it is the per-layer ``door.p95_us``, not an end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("stmts_per_s", "1/s", "higher", 0.25),
    ("p50_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]


def emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


# ----------------------------------------------------------------------
# child roles


def child_main(args: argparse.Namespace) -> int:
    """``measure``: set up, announce the first timed operation, measure,
    print the result.  ``setup``: set up, announce, tear down."""
    import harness

    workload = WORKLOADS[args.workload]
    bench = harness.Bench(workload, args.seed)
    emit({"event": "timed_start", "speed": bench.setup_speed()})
    layers = None
    recorders: list = []
    try:
        if args.role == "measure":
            if args.trace:
                import ladder

                timed, others, layers = ladder.traced_run(bench, args.seconds, OUT)
                recorders = [*timed, *others]
            else:
                recorders = timed = bench.timed(args.seconds)
            if workload.name == "mixed_http":
                bench.check_sequenced_ledger(recorders)
    finally:
        server_rss = bench.close()
    if args.role == "setup":
        return 0
    samples = harness.merge(timed)
    metrics = harness.end_to_end(samples)
    metrics["peak_rss_mb"] = {
        "value": harness.self_peak_rss_mb() + server_rss, "unit": "MB",
    }
    everything = [bench.setup, *recorders]
    emit({
        "event": "result",
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "errors": [e for r in everything for e in r.errors][:10],
        "samples": len(samples.end),
        "windows": len(samples.bounds),
        "metrics": metrics,
        "diagnostics": harness.door_diagnostics(samples),
        "per_layer": layers,
    })
    return 0


def serve_main(args: argparse.Namespace) -> int:
    import harness

    return harness.serve_main(WORKLOADS[args.workload], args.seed)


# ----------------------------------------------------------------------
# the orchestrating parent


def spawn(
    role: str, workload: str, seed: int, seconds: float, trace: bool, deadline: float
) -> dict:
    """Run one child; returns its result event plus ``setup_s``, timed
    here from just before the spawn to the child's ``timed_start`` and
    scaled, like the other timings, to the reference speed by the
    calibration chunks the child ran while setting up.  The child is
    killed if it is still running at *deadline* (monotonic)."""
    command = [
        sys.executable,
        *(f"-W{option}" for option in sys.warnoptions),
        os.path.abspath(__file__),
        "--role", role, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    began = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    watchdog.start()
    result: dict = {}
    try:
        for line in child.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "timed_start":
                result["setup_s"] = (time.perf_counter() - began) * event["speed"]
            elif event.get("event") == "result":
                result.update(event)
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or "setup_s" not in result:
        raise RuntimeError(
            f"{role} child for {workload} exited with code {child.returncode}"
        )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up repeats, then the measuring child."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = []
    if not trace:
        setups = [
            spawn("setup", name, seed, seconds, False, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
    result = spawn("measure", name, seed, seconds, trace, deadline)
    setups.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "windows": setups,
    }
    attempted, failed = result["attempted"], result["failed"]
    result["metrics"]["fail_ratio"] = {
        "value": failed / attempted if attempted else 1.0, "unit": "ratio",
    }
    result.pop("event", None)
    return result


def report(name: str, result: dict) -> None:
    why = WORKLOADS[name].why
    print(f"\n== {name} — {why}")
    print(
        f"   {result['samples']} timed samples in {result['windows']} windows; "
        f"{result['attempted']} operations checked, {result['failed']} failed"
    )
    for error in result.get("errors", []):
        print(f"   ! {error}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<34}{entry['value']:>16.4f} {entry['unit']}")
    if not result.get("per_layer"):  # the traced run reports these itself
        for metric, value in result["diagnostics"].items():
            print(f"   {metric:<34}{value:>16.4f} (diagnostic)")
    for metric, entry in (result.get("per_layer") or {}).items():
        if entry["value"] is None:
            print(f"   {metric:<34}{'null':>16} ({entry['reason']})")
        else:
            print(f"   {metric:<34}{entry['value']:>16.4f} {entry['unit']}")


def contract_line(result: dict, trace: bool) -> dict:
    """The one-line result the benchmark contract asks for.  A per-layer
    metric that does not apply to the workload is reported as 0 there
    (result.json keeps ``null`` and the reason)."""
    if trace:
        metrics = {
            name: {"value": entry["value"] or 0.0, "unit": entry["unit"]}
            for name, entry in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --selfcheck


def selfcheck() -> int:
    """Seconds, no timing: names, counts, BENCHMARK.json and determinism."""
    from ladder import PER_LAYER

    problems = []
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    emitted = {
        "workloads": list(WORKLOADS),
        "end_to_end": [name for name, *_ in END_TO_END],
        "per_layer": [name for name, *_ in PER_LAYER],
    }
    limits = {"workloads": 8, "end_to_end": 16, "per_layer": 128}
    for section, names in emitted.items():
        listed = [entry["name"] for entry in spec[section]]
        if listed != names:
            problems.append(
                f"BENCHMARK.json {section} differs from the driver: "
                f"{sorted(set(listed) ^ set(names)) or 'order'}"
            )
        if len(names) > limits[section]:
            problems.append(f"{len(names)} {section} > {limits[section]}")
        problems += [f"bad name {n!r}" for n in names if not name_ok.match(n)]
    if len(set(sum(emitted.values(), []))) != sum(map(len, emitted.values())):
        problems.append("a name is used twice")
    for name, unit, better, bound in END_TO_END:
        entry = next(e for e in spec["end_to_end"] if e["name"] == name)
        if (entry["unit"], entry["better"], entry["bound"]) != (unit, better, bound):
            problems.append(f"BENCHMARK.json disagrees on {name}")
    for name, workload in WORKLOADS.items():
        one, again, other = (
            ops_digest(build_ops(workload, seed)) for seed in (1, 1, 7)
        )
        if one != again:
            problems.append(f"{name}: same seed, different operations")
        if one == other:
            problems.append(f"{name}: seeds 1 and 7 give the same operations")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {'FAILED' if problems else 'ok'} "
          f"({len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end, "
          f"{len(PER_LAYER)} per-layer metrics)")
    return 1 if problems else 0


# ----------------------------------------------------------------------


def default_seconds() -> float:
    try:
        with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument(
        "--role", choices=("measure", "setup", "serve"), help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.selfcheck:
        return selfcheck()
    if args.role == "serve":
        return serve_main(args)
    if args.role:
        return child_main(args)

    import repro  # noqa: F401 — fail here, before any child, if src/ is missing

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        # One workload: the run the contract asks for, traced or not.
        # All workloads: the end-to-end numbers always come from an
        # untraced run; --trace adds the ledger from a second, traced one.
        result = run_workload(name, args.seed, args.seconds, bool(args.workload and args.trace))
        if args.trace and not args.workload:
            traced = run_workload(name, args.seed, args.seconds, True)
            result["per_layer"] = traced["per_layer"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["errors"] += traced["errors"]
        results[name] = result
        report(name, result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results},
            handle, indent=1,
        )
    failed = sum(result["failed"] for result in results.values())
    if args.workload:
        print(json.dumps(contract_line(results[args.workload], bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
