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

Three tables:

* every read template of ``benchmarks/e2e/workloads.py::TEMPLATES`` ×
  four execution contexts — the two a generated kernel is shaped for,
  ``unguarded`` (the connection's default options: no guard) and
  ``guarded`` (``options=ExecutionOptions(timeout=60)``: the execution
  carries a guard, so its kernels tick), ``analyzed``
  (``options=ExecutionOptions(analyze=True)``: EXPLAIN ANALYZE's sink
  rides along) and ``as_written``
  (``options=ExecutionOptions(optimize=False)``: no rewrite, so a
  subquery the rules would flatten runs its body once per outer row)
  — through ``Connection.execute(...).fetchall()`` on
  ``SupplierScale(400, 10, 3)`` — and ``literal``: the template with
  fresh bindings inlined as literals, a text never run before on every
  call, as ``adhoc_local`` runs it (each side runs the same texts; their
  rows, served SQL and audit trails are compared text by text).
  Every template runs a generated kernel (a key lookup's ``IndexScan``
  under its ``Project`` is one scan pipeline), so no class of this
  table is a noise floor;
* the wire codec per read template: ``dumps(query_response(executed))``
  (encode) and ``parse_query_response(parse_json(raw))`` (decode) on each
  side's own result of the template — the serialize layer of a remote
  read, without the socket;
* the front end: ``parse(text)`` and ``Optimizer.optimize(ast)`` (the
  relational profile) per read template, warm, then over the 2 048
  ``adhoc_local`` texts at seed 7, cold: every cache but the compiled
  kernels is cleared first, and each text is optimized once per side,
  as the workload does.  Outside the timed calls, both sides' ASTs,
  rewritten SQL and full audit trails are compared on every text.

Both sides must return equal rows (as multisets: a join may enumerate
them in another order) / byte-identical response bodies (each side
encodes its result with the rows sorted and the ``stats`` counters
dropped) / equal front-end output; a difference is printed and makes
the exit status 1.  ``benchmarks/e2e`` is read, never edited.  End-to-end claims are
still ``scripts/bench_pairs.py``'s.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import os
import random
import statistics
import sys
from time import perf_counter

CLASS_ROUNDS = 60
WARMUP = 3
SEED = 7
SUPPLIERS, PARTS, AGENTS = 400, 10, 3
LEDGER_ROWS = 100


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


def database_side(package: str, workloads):
    """One side's benchmark database."""
    supplier = importlib.import_module(f"{package}.workloads")
    scale = supplier.SupplierScale(SUPPLIERS, PARTS, AGENTS, seed=SEED)
    database = supplier.build_database(supplier.generate(scale))
    ledger = ", ".join(f"({k}, {k})" for k in range(1, LEDGER_ROWS + 1))
    database.run_script(f"{workloads.LEDGER_DDL} INSERT INTO LEDGER VALUES {ledger};")
    return database


def read_templates(workloads):
    """``(template_id, sql, params)`` for every read template, the same
    draws on every call."""
    rng = random.Random(SEED)
    dims = workloads.Dims(SUPPLIERS, PARTS, AGENTS)
    for template_id, template in workloads.TEMPLATES.items():
        if template.kind != workloads.READ:
            continue
        if template_id == "key_lookup.ledger":  # keys are sequenced, not drawn
            params = {"K": rng.randint(1, LEDGER_ROWS)}
        else:
            params = workloads._draw(template_id, rng, dims)
        yield template_id, template.sql, params


def context_options(package: str) -> dict:
    """One side's ``options=`` per execution context: ``None`` keeps the
    connection's defaults (no guard); a timeout gives every execution
    a guard; ``analyze`` attaches an EXPLAIN ANALYZE sink; ``optimize``
    off runs the statement as written."""
    options = sys.modules[package].ExecutionOptions
    return {
        "unguarded": None,
        "guarded": options(timeout=60),
        "analyzed": options(analyze=True),
        "as_written": options(optimize=False),
    }


def literal_texts(workloads, template_id: str, sql: str, count: int) -> list[str]:
    """*count* distinct texts of the template, each with fresh bindings
    written as literals."""
    rng = random.Random(f"{SEED}-{template_id}")
    dims = workloads.Dims(SUPPLIERS, PARTS, AGENTS)
    texts: dict[str, None] = {}
    for _ in range(100 * count):
        if template_id == "key_lookup.ledger":
            params = {"K": rng.randint(1, LEDGER_ROWS)}
        else:
            params = workloads._draw(template_id, rng, dims)
        texts[workloads.inline_literals(sql, params)] = None
        if len(texts) == count:
            break
    return list(texts)


def compare_literal(workloads, template_id, sql, conn_parent, conn_change) -> bool:
    """The ``literal`` context of one template: a fresh text per call on
    both sides, then rows, served SQL and audit trails compared."""
    texts = literal_texts(workloads, template_id, sql, WARMUP + CLASS_ROUNDS)
    label = f"{template_id} [literal]"
    if len(texts) < WARMUP + CLASS_ROUNDS:
        print(f"{label}: only {len(texts)} distinct texts, skipped")
        return True
    served = {"parent": [], "change": []}

    def runner(conn, side):
        pending = iter(texts)

        def run():
            cursor = conn.execute(next(pending))
            cursor.fetchall()
            served[side].append(cursor.executed)

        return run

    times = alternate(runner(conn_parent, "parent"), runner(conn_change, "change"), CLASS_ROUNDS)
    for text, parent, change in zip(texts, served["parent"], served["change"]):
        if (
            sorted(map(repr, parent.rows)) != sorted(map(repr, change.rows))
            or parent.sql != change.sql
            or repr(parent.outcome.audit.to_dicts()) != repr(change.outcome.audit.to_dicts())
        ):
            print(f"{label}: OUTPUT DIFFERS on {text!r}")
            return False
    report(label, *times)
    return True


def compare_classes(workloads, conn_parent, conn_change) -> bool:
    contexts_parent = context_options("repro_parent")
    contexts_change = context_options("repro_change")

    def run_parent(sql, params, context):
        options = contexts_parent[context]
        return conn_parent.execute(sql, params, options=options).fetchall()

    def run_change(sql, params, context):
        options = contexts_change[context]
        return conn_change.execute(sql, params, options=options).fetchall()

    header("statement classes, Connection.execute(...).fetchall()", CLASS_ROUNDS)
    same = True
    for template_id, sql, params in read_templates(workloads):
        for context in contexts_change:
            label = f"{template_id} [{context}]"
            # The two packages have a NULL singleton each: compare text.
            # A join may enumerate its rows in another order: multisets.
            rows_parent = sorted(map(repr, run_parent(sql, params, context)))
            rows_change = sorted(map(repr, run_change(sql, params, context)))
            if rows_parent != rows_change:
                same = False
                print(f"{label}: ROWS DIFFER")
                continue
            report(
                label,
                *alternate(
                    lambda: run_parent(sql, params, context),
                    lambda: run_change(sql, params, context),
                    CLASS_ROUNDS,
                ),
            )
        same = compare_literal(workloads, template_id, sql, conn_parent, conn_change) and same
    return same


# ----------------------------------------------------------------------
# wire codec


def codec_side(package: str):
    """``(encode, decode)``: one side's response body for an executed
    statement, and the client's reading of that body."""
    protocol = importlib.import_module(f"{package}.net.protocol")

    def encode(executed):
        return protocol.dumps(protocol.query_response(executed))

    def decode(raw):
        return protocol.parse_query_response(protocol.parse_json(raw))

    return encode, decode


def _comparable(executed):
    """*executed* with its rows sorted and no ``stats`` counters: a join
    may enumerate its rows in another order, and an engine change moves
    the counters, which the codec only carries."""
    return dataclasses.replace(executed, rows=sorted(executed.rows, key=repr), stats={})


def compare_codec(workloads, conn_parent, conn_change) -> bool:
    encode_parent, decode_parent = codec_side("repro_parent")
    encode_change, decode_change = codec_side("repro_change")
    header("wire codec, encode = dumps(query_response(executed))", CLASS_ROUNDS)
    same = True
    for template_id, sql, params in read_templates(workloads):
        executed_parent = _comparable(conn_parent.execute(sql, params).executed)
        executed_change = _comparable(conn_change.execute(sql, params).executed)
        raw_parent = encode_parent(executed_parent)
        raw_change = encode_change(executed_change)
        if raw_parent != raw_change:
            same = False
            print(f"{template_id}: BYTES DIFFER")
            continue
        rows = len(executed_change.rows)
        report(
            f"{template_id} encode [{rows}]",
            *alternate(
                lambda: encode_parent(executed_parent),
                lambda: encode_change(executed_change),
                CLASS_ROUNDS,
            ),
        )
        report(
            f"{template_id} decode [{rows}]",
            *alternate(
                lambda: decode_parent(raw_parent),
                lambda: decode_change(raw_change),
                CLASS_ROUNDS,
            ),
        )
    return same


# ----------------------------------------------------------------------
# front end


def front_end_side(package: str, database):
    """``(parse, optimize, clear)``: one side's parser, its relational
    optimizer over *database*'s catalog, and a reset of every cache but
    the compiled kernels."""
    parse = importlib.import_module(f"{package}.sql").parse
    rewrite = importlib.import_module(f"{package}.core.rewrite")
    optimizer = rewrite.Optimizer.for_relational(database.catalog)
    registry = importlib.import_module(f"{package}.cache")._registry

    def clear():
        for cache in registry:
            if cache.name != "kernels":
                cache.clear()

    return parse, optimizer.optimize, clear


def front_end_output(parse, optimize, text: str) -> tuple:
    """What the front end produced for *text*, as comparable strings."""
    ast = parse(text)
    result = optimize(ast)
    return repr(ast), result.sql, repr(result.audit.to_dicts())


def report_by_class(label: str, classes, parent_times, change_times) -> None:
    """One row over every item, then one row per statement class."""
    report(f"{label} [{len(classes)}]", parent_times, change_times)
    for cls in dict.fromkeys(classes):
        picked = [i for i, name in enumerate(classes) if name == cls]
        report(
            f"  {cls} [{len(picked)}]",
            [parent_times[i] for i in picked],
            [change_times[i] for i in picked],
        )


def alternate_cold(parent_call, change_call, items):
    """Per-side samples of one call per item, alternating which side goes
    first, with no warm-up: each item is seen once per side."""
    parent_times, change_times = [], []
    for index, item in enumerate(items):
        order = ((parent_call, parent_times), (change_call, change_times))
        for call, times in order if index % 2 == 0 else reversed(order):
            start = perf_counter()
            call(item)
            times.append(perf_counter() - start)
    return parent_times, change_times


def compare_front_end(workloads, db_parent, db_change) -> bool:
    parse_p, optimize_p, clear_p = front_end_side("repro_parent", db_parent)
    parse_c, optimize_c, clear_c = front_end_side("repro_change", db_change)
    header("front end, parse(text) / Optimizer.optimize(ast), warm", CLASS_ROUNDS)
    same = True
    for template_id, sql, _ in read_templates(workloads):
        ast_p, ast_c = parse_p(sql), parse_c(sql)
        if repr(ast_p) != repr(ast_c):
            same = False
            print(f"{template_id}: ASTS DIFFER")
            continue
        report(
            f"{template_id} parse",
            *alternate(lambda: parse_p(sql), lambda: parse_c(sql), CLASS_ROUNDS),
        )
        report(
            f"{template_id} optimize",
            *alternate(
                lambda: optimize_p(ast_p), lambda: optimize_c(ast_c), CLASS_ROUNDS
            ),
        )

    (ops,) = workloads.build_ops(workloads.WORKLOADS["adhoc_local"], SEED)
    texts, classes = [op.sql for op in ops], [op.cls for op in ops]
    header("front end over adhoc_local texts, cold", len(texts))
    clear_p()
    clear_c()
    report_by_class(
        "adhoc_local parse", classes, *alternate_cold(parse_p, parse_c, texts)
    )
    asts = [(parse_p(text), parse_c(text)) for text in texts]
    clear_p()
    clear_c()
    report_by_class(
        "adhoc_local optimize",
        classes,
        *alternate_cold(
            lambda pair: optimize_p(pair[0]), lambda pair: optimize_c(pair[1]), asts
        ),
    )
    differing = [
        text
        for text in texts
        if front_end_output(parse_p, optimize_p, text)
        != front_end_output(parse_c, optimize_c, text)
    ]
    if differing:
        same = False
        print(f"adhoc_local: FRONT-END OUTPUT DIFFERS on {len(differing)} texts, "
              f"e.g. {differing[0]!r}")
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

    db_parent = database_side("repro_parent", workloads)
    db_change = database_side("repro_change", workloads)
    conn_parent = sys.modules["repro_parent"].connect(db_parent)
    conn_change = sys.modules["repro_change"].connect(db_change)
    same = compare_classes(workloads, conn_parent, conn_change)
    same = compare_codec(workloads, conn_parent, conn_change) and same
    same = compare_front_end(workloads, db_parent, db_change) and same
    print("\nresults: " + ("equal on both sides" if same else "DIFFERENT"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
