#!/usr/bin/env python3
"""Parent vs change in ONE process, alternated call by call.

    python3 scripts/ab_inprocess.py --parent /root/scratch/parent [--change .]

This box switches between two CPU speeds (≈ 28 % apart) for seconds at
a time, so two *processes* run one after the other read 0.7–1.2 × on
identical code, and a layer worth 5 % cannot be resolved that way.
Here both checkouts' ``repro`` packages are loaded side by side under
two package names (``src/`` has no absolute self-import), the two sides
are called alternately — which side goes first alternates too — and
what is reported is each side's median and the **median of the paired
ratios** change ÷ parent: a speed switch lands on both calls of a pair
or, at worst, on one pair, which a median ignores.

Two tables:

* every read template of ``benchmarks/e2e/workloads.py::TEMPLATES`` ×
  ``tuple``/``vectorized`` through ``Connection.execute(...).fetchall()``
  on ``SupplierScale(400, 10, 3)``.  ``big_result`` executes no
  predicate: its ratio is the noise floor of this table;
* a fixed list of mask-kernel cases on one 2 048-row batch, with and
  without NULL lanes (``compile_batch_filter``'s kernel is what is
  timed; ``compile_batch_predicate``'s mask pair is compared too).

Both sides must return equal rows / bit-identical masks; a difference is
printed and makes the exit status 1.  ``benchmarks/e2e`` is read, never
edited.  End-to-end claims are still ``scripts/bench_pairs.py``'s.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import random
import statistics
import sys
from time import perf_counter

CLASS_ROUNDS = 60
KERNEL_ROUNDS = 300
WARMUP = 3
SEED = 7
SUPPLIERS, PARTS, AGENTS = 400, 10, 3
LEDGER_ROWS = 100
BATCH_ROWS = 2048

#: Columns of the kernel batch: dense ints, a dense string, and the same
#: three with every seventh lane NULL.
KERNEL_COLUMNS = ["A", "B", "C", "N", "M", "S"]
KERNEL_CASES = [
    # dense lanes
    "A = 7",
    "A <> 7",
    "A < 500",
    "C >= 'M'",
    "A < B",
    "A = B",
    "A BETWEEN 100 AND 900",
    "A IN (1, 2, 3)",
    "NOT A < 500",
    "A < 100 OR B > 900",
    # NULL lanes
    "N = 7",
    "N < 500",
    "S >= 'M'",
    "N < M",
    "N BETWEEN 100 AND 900",
    "N NOT IN (1, 2, 3)",
    "NOT N < 500",
    "N < 100 OR M > 900",
    "N IS NULL AND A < 500",
]


def load_package(name: str, checkout: str):
    """Import ``<checkout>/src/repro`` as the top-level package *name*."""
    root = os.path.join(os.path.abspath(checkout), "src", "repro")
    if not os.path.isdir(root):
        raise SystemExit(f"no repro package under {checkout}/src")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternate(parent_call, change_call, rounds: int):
    """Per-side samples (seconds) of *rounds* alternated pairs."""
    for _ in range(WARMUP):
        parent_call()
        change_call()
    gc.collect()
    parent_times, change_times = [], []
    for round_ in range(rounds):
        order = (
            ((parent_call, parent_times), (change_call, change_times))
            if round_ % 2 == 0
            else ((change_call, change_times), (parent_call, parent_times))
        )
        for call, times in order:
            start = perf_counter()
            call()
            times.append(perf_counter() - start)
    return parent_times, change_times


def report(label: str, parent_times, change_times) -> None:
    ratio = statistics.median(c / p for p, c in zip(parent_times, change_times))
    print(
        f"{label:<34} {statistics.median(parent_times) * 1e3:>10.3f} "
        f"{statistics.median(change_times) * 1e3:>10.3f} {ratio:>7.2f}"
    )


def header(title: str, rounds: int) -> None:
    print(f"\n{title} ({rounds} alternated pairs; ratio = median of change/parent)")
    print(f"{'case':<34} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")


# ----------------------------------------------------------------------
# statement classes


def class_side(package: str, workloads):
    """``(sql, params, mode) -> rows`` through one side's ``Connection``."""
    supplier = importlib.import_module(f"{package}.workloads")
    scale = supplier.SupplierScale(SUPPLIERS, PARTS, AGENTS, seed=SEED)
    database = supplier.build_database(supplier.generate(scale))
    ledger = ", ".join(f"({k}, {k})" for k in range(1, LEDGER_ROWS + 1))
    database.run_script(f"{workloads.LEDGER_DDL} INSERT INTO LEDGER VALUES {ledger};")
    conn = sys.modules[package].connect(database)
    return lambda sql, params, mode: conn.execute(
        sql, params, engine_mode=mode
    ).fetchall()


def compare_classes(workloads) -> bool:
    run_parent = class_side("repro_parent", workloads)
    run_change = class_side("repro_change", workloads)
    rng = random.Random(SEED)
    dims = workloads.Dims(SUPPLIERS, PARTS, AGENTS)
    header("statement classes, Connection.execute(...).fetchall()", CLASS_ROUNDS)
    same = True
    for template_id, template in workloads.TEMPLATES.items():
        if template.kind != workloads.READ:
            continue
        if template_id == "key_lookup.ledger":  # keys are sequenced, not drawn
            params = {"K": rng.randint(1, LEDGER_ROWS)}
        else:
            params = workloads._draw(template_id, rng, dims)
        for mode in ("tuple", "vectorized"):
            label = f"{template_id} [{mode}]"
            # The two packages have a NULL singleton each: compare text.
            rows_parent = repr(run_parent(template.sql, params, mode))
            rows_change = repr(run_change(template.sql, params, mode))
            if rows_parent != rows_change:
                same = False
                print(f"{label}: ROWS DIFFER")
                continue
            report(
                label,
                *alternate(
                    lambda: run_parent(template.sql, params, mode),
                    lambda: run_change(template.sql, params, mode),
                    CLASS_ROUNDS,
                ),
            )
    return same


# ----------------------------------------------------------------------
# mask kernels


def kernel_side(package: str):
    """``condition text -> (filter kernel, predicate kernel, batch)``."""
    columnar = importlib.import_module(f"{package}.engine.columnar")
    schema_module = importlib.import_module(f"{package}.engine.schema")
    sql = importlib.import_module(f"{package}.sql")
    null = importlib.import_module(f"{package}.types").NULL
    rng = random.Random(SEED)
    rows = []
    for lane in range(BATCH_ROWS):
        a, b = rng.randint(0, 999), rng.randint(0, 999)
        c = rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") + str(a)
        holed = (null, null, null) if lane % 7 == 3 else (a, b, c)
        rows.append((a, b, c, *holed))
    batch = columnar.ColumnBatch.from_rows(rows, len(KERNEL_COLUMNS))
    schema = schema_module.RelSchema.for_table("T", KERNEL_COLUMNS)

    def compiled(text: str):
        expr = sql.parse_condition(text)
        return (
            columnar.compile_batch_filter(expr, schema, {}),
            columnar.compile_batch_predicate(expr, schema, {}),
            batch,
        )

    return compiled


def compare_kernels() -> bool:
    compile_parent = kernel_side("repro_parent")
    compile_change = kernel_side("repro_change")
    header(f"mask kernels, one {BATCH_ROWS}-row batch", KERNEL_ROUNDS)
    same = True
    for text in KERNEL_CASES:
        filter_parent, predicate_parent, batch_parent = compile_parent(text)
        filter_change, predicate_change, batch_change = compile_change(text)
        if (
            filter_parent(batch_parent) != filter_change(batch_change)
            or predicate_parent(batch_parent) != predicate_change(batch_change)
        ):
            same = False
            print(f"{text}: MASKS DIFFER")
            continue
        report(
            text,
            *alternate(
                lambda: filter_parent(batch_parent),
                lambda: filter_change(batch_change),
                KERNEL_ROUNDS,
            ),
        )
    return same


def main() -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument(
        "--change", default=here, help="checkout of the change (default: this one)"
    )
    args = parser.parse_args()

    load_package("repro_parent", args.parent)
    load_package("repro_change", args.change)
    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "benchmarks", "e2e"))
    import workloads  # benchmarks/e2e/workloads.py: pure data, imports no repro

    same = compare_classes(workloads)
    same = compare_kernels() and same
    print("\nresults: " + ("equal on both sides" if same else "DIFFERENT"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
