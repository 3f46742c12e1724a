"""Command-line interface.

Usage::

    python -m repro {check,optimize,run,explain,analyze-stats,serve,client,demo} ...
    python -m repro SUBCOMMAND --help

``docs/cli.md`` documents every flag.  The per-query option flags
(budgets, deadline, priority, safe mode, ANALYZE, rewrites, statistics)
are the fields of :class:`~repro.options.ExecutionOptions`, and
:data:`OPTION_FLAGS` states each once.

* ``check`` runs Algorithm 1 and prints the paper-style trace
  (``--json`` emits the verdict plus the bound-attribute witness).
* ``optimize`` prints the rewrite trace, the theorem-by-theorem proof
  sketch, and the final SQL.
* ``run`` executes a query — against a script-built database
  (``--script`` containing CREATE TABLE / INSERT statements) or the
  bundled demo instance — optionally showing the physical plan.
  ``--timeout`` and ``--row-budget`` set per-query resource budgets;
  ``--safe-mode`` cross-checks uniqueness-based rewrites against the
  unrewritten plan and quarantines any rule caught changing the result.
  ``--trace`` prints the hierarchical span tree, ``--analyze`` runs
  EXPLAIN ANALYZE (per-operator actual rows / loops / time / q-error)
  plus the rewrite proof sketch, and ``--metrics-out FILE`` exports a
  metrics snapshot (``.prom`` selects Prometheus text, else JSON).
  ``--stats`` plans cost-based from table statistics (collected
  automatically on first use); ``--adaptive`` additionally analyzes
  the run and folds observed row counts back into per-plan-node
  corrections so repeated runs converge (see ``docs/cost_model.md``).
* ``analyze-stats`` runs the ANALYZE pass — per-table row counts,
  per-column NULL/distinct counts, min/max, equi-depth histograms —
  stores the catalog on the database, and prints a summary.
* ``explain`` shows the rewrite audit and the physical plan without
  printing rows; with ``--analyze`` the query is executed once and the
  plan is annotated with that execution's actuals.
* ``serve`` runs a batch of queries (one per line, from ``--file`` or
  stdin) through the embedded :class:`~repro.service.QueryService` —
  ``--workers`` query threads and a ``--queue-depth``-bounded
  admission queue.  With ``--http PORT`` it instead starts the network
  server (:class:`~repro.net.server.QueryServer`) on that port and
  serves until SIGTERM/SIGINT, then drains gracefully — in-flight
  queries complete before the listener closes.  ``--shards N`` (with
  ``--http``) serves a sharded cluster instead: N worker processes
  behind the :class:`~repro.cluster.ClusterFrontend` front end (see
  ``docs/cluster.md``).
* ``client`` executes one query against a running ``serve --http``
  server through the same :class:`~repro.api.Connection` facade local
  code uses, with bounded retry on 429/transient faults.
* ``demo`` walks through the paper's worked examples.

Exit codes: 0 success (for ``check``: verdict YES), 1 ``check`` verdict
NO, 2 a usage or generic library error; every typed error's own code
is in :data:`repro.errors.ERROR_TABLE`.  A
:class:`~repro.errors.RemoteQueryError` relayed from a server maps by
its *original* error type — a remote row-budget violation still exits 5.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .catalog import Catalog
from .core import Optimizer, UniquenessOptions, test_uniqueness
from .engine import (
    Database,
    Planner,
    PlannerOptions,
    Stats,
)
from .api import Connection
from .api import connect as api_connect
from .errors import ReproError, exit_code_for, exit_code_summary
from .options import ExecutionOptions
from .observe import (
    AnalyzedExecution,
    AuditTrail,
    MetricsRegistry,
    TRACER,
    execute_analyzed,
    set_tracing,
)
from .resilience.admission import PRIORITIES
from .service import QueryService
from .sql import parse_query
from .types import NULL, SqlValue
from .workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_catalog,
    build_database,
    generate,
)


def _positive(kind: type) -> Any:
    """An argparse ``type=``: a strictly positive *kind* (int or float).

    Budgets, batch sizes and pool sizes are all "at least one of
    something"; rejecting zero and negatives here makes them ordinary
    usage errors (exit 2) instead of a ``ValueError`` traceback from
    whichever constructor first looks at the number.
    """

    def parse(text: str) -> Any:
        value = kind(text)
        if not value > 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be positive, not {text}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = kind.__name__
    return parse


#: The per-query option flags: :class:`~repro.options.ExecutionOptions`
#: field → its flag and argparse keywords.  ``run``, ``serve``,
#: ``client`` and ``explain`` add theirs from here, and
#: :func:`_execution_options` reads the parsed values back.
OPTION_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "timeout": (
        "--timeout",
        {
            "type": _positive(float),
            "metavar": "SECONDS",
            "help": "per-query wall-clock budget (exit code 4)",
        },
    ),
    "row_budget": (
        "--row-budget",
        {
            "type": _positive(int),
            "metavar": "N",
            "help": "per-query row-processing budget (exit code 5)",
        },
    ),
    "deadline": (
        "--deadline-ms",
        {
            "type": float,
            "metavar": "MS",
            "help": "end-to-end deadline in milliseconds; a query whose "
            "budget is already spent is rejected before any work (exit "
            "code 12)",
        },
    ),
    "priority": (
        "--priority",
        {
            "choices": PRIORITIES,
            "help": "admission priority class (default interactive; batch "
            "is shed first under load)",
        },
    ),
    "safe_mode": (
        "--safe-mode",
        {
            "action": "store_true",
            "help": "cross-check rewrites against the unrewritten plan; on "
            "a mismatch quarantine the rules and serve the verified result",
        },
    ),
    "analyze": (
        "--analyze",
        {
            "action": "store_true",
            "help": "EXPLAIN ANALYZE: execute once and report each "
            "operator's actual rows, loops, timing, and q-error",
        },
    ),
    "optimize": (
        "--no-optimize",
        {
            "action": "store_true",
            "help": "take the query as written, skipping the rewrite rules",
        },
    ),
    "stats": (
        "--stats",
        {
            "action": "store_true",
            "help": "cost-based planning from table statistics (the ANALYZE "
            "pass runs automatically when the catalog is missing or stale)",
        },
    ),
    "adaptive": (
        "--adaptive",
        {
            "action": "store_true",
            "help": "statistics-driven planning plus the adaptive feedback "
            "loop: fold actual row counts into per-plan-node corrections "
            "(implies --stats)",
        },
    ),
}


def _add_option_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag, spec = OPTION_FLAGS[name]
        sub.add_argument(flag, **spec)


def _execution_options(args: argparse.Namespace) -> ExecutionOptions:
    """The :class:`ExecutionOptions` the parsed option flags ask for;
    a value the options refuse raises :class:`ValueError`."""
    loose: dict[str, Any] = {}
    for name, (flag, _spec) in OPTION_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None or value is False:
            continue  # not given, or not one of this subcommand's flags
        if name == "optimize":
            value = False  # --no-optimize
        elif name == "deadline":
            value /= 1000.0  # seconds from now
        loose[name] = value
    return ExecutionOptions.create(**loose)


def build_arg_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exploiting Uniqueness in Query Optimization "
        "(Paulley & Larson, ICDE 1994) — reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_schema_options(sub: argparse.ArgumentParser) -> None:
        group = sub.add_mutually_exclusive_group()
        group.add_argument(
            "--schema", metavar="FILE", help="DDL file defining the schema"
        )
        group.add_argument(
            "--paper",
            action="store_true",
            help="use the paper's supplier schema (default)",
        )

    def add_database_options(sub: argparse.ArgumentParser) -> None:
        source = sub.add_mutually_exclusive_group()
        source.add_argument(
            "--script",
            metavar="FILE",
            help="script of CREATE TABLE / INSERT statements to build the "
            "database from",
        )
        source.add_argument(
            "--demo",
            action="store_true",
            help="run against a small generated supplier instance (default)",
        )
        sub.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="host-variable binding (repeatable)",
        )

    check = commands.add_parser(
        "check", help="run Algorithm 1 on a query"
    )
    add_schema_options(check)
    check.add_argument(
        "--use-check-constraints",
        action="store_true",
        help="exploit CHECK constraints over NOT NULL columns",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict and witness as JSON",
    )
    check.add_argument("sql", help="the query to analyze")

    optimize = commands.add_parser(
        "optimize", help="rewrite a query and show the trace"
    )
    add_schema_options(optimize)
    optimize.add_argument(
        "--profile",
        choices=("relational", "navigational"),
        default="relational",
        help="rule profile (default: relational)",
    )
    optimize.add_argument("sql", help="the query to optimize")

    run = commands.add_parser("run", help="execute a query")
    add_database_options(run)
    run.add_argument(
        "--plan", action="store_true", help="also print the physical plan"
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record and print the hierarchical trace spans",
    )
    _add_option_flags(run, *OPTION_FLAGS)
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write a metrics snapshot (.prom = Prometheus text, else JSON)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit rows, stats, audit, plan, and trace as one JSON object",
    )
    run.add_argument("sql", help="the query to execute")

    explain = commands.add_parser(
        "explain",
        help="show the rewrite audit and physical plan without the rows",
    )
    add_database_options(explain)
    explain.add_argument(
        "--profile",
        choices=("relational", "navigational"),
        default="relational",
        help="rule profile (default: relational)",
    )
    _add_option_flags(explain, "optimize", "analyze")
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the plan and audit as one JSON object",
    )
    explain.add_argument("sql", help="the query to explain")

    analyze_stats = commands.add_parser(
        "analyze-stats",
        help="collect table statistics (the ANALYZE pass) and print them",
    )
    stats_source = analyze_stats.add_mutually_exclusive_group()
    stats_source.add_argument(
        "--script",
        metavar="FILE",
        help="script of CREATE TABLE / INSERT statements to build the "
        "database from",
    )
    stats_source.add_argument(
        "--demo",
        action="store_true",
        help="analyze a small generated supplier instance (default)",
    )
    analyze_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics catalog as JSON",
    )

    serve = commands.add_parser(
        "serve",
        help="run a batch of queries through the embedded query service",
        epilog=exit_code_summary(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    source = serve.add_mutually_exclusive_group()
    source.add_argument(
        "--script",
        metavar="FILE",
        help="script of CREATE TABLE / INSERT statements to build the "
        "database from",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="serve against a small generated supplier instance (default)",
    )
    serve.add_argument(
        "--file",
        metavar="FILE",
        help="file with one query per line ('--' comments and blank lines "
        "are skipped); default: read stdin",
    )
    serve.add_argument(
        "--workers",
        type=_positive(int),
        default=2,
        metavar="N",
        help="query worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-depth",
        type=_positive(int),
        default=64,
        metavar="N",
        help="admission queue bound; a full queue blocks submission "
        "(default 64)",
    )
    _add_option_flags(
        serve, "timeout", "row_budget", "safe_mode", "stats", "adaptive"
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit per-query outcomes and service metrics as JSON",
    )
    serve.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="serve the HTTP+JSON query protocol on this port instead of "
        "running a batch; drains gracefully on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address for --http (default 127.0.0.1)",
    )
    serve.add_argument(
        "--shards",
        type=_positive(int),
        metavar="N",
        help="with --http: serve a sharded cluster of N worker "
        "processes behind a front end, which forwards each "
        "statement whole to the next worker in rotation",
    )

    client = commands.add_parser(
        "client",
        help="execute one query against a running `serve --http` server",
        epilog=exit_code_summary(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    client.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8080")
    client.add_argument(
        "--session",
        metavar="NAME",
        help="run under this named server-side session",
    )
    client.add_argument(
        "--stream",
        action="store_true",
        help="request an NDJSON streaming response",
    )
    _add_option_flags(client, *OPTION_FLAGS)
    client.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="host-variable binding (repeatable)",
    )
    client.add_argument(
        "--json",
        action="store_true",
        help="emit rows, stats, and the rewrite trail as one JSON object",
    )
    client.add_argument("sql", help="the query to execute")

    commands.add_parser("demo", help="walk through the paper's examples")
    return parser


def _load_catalog(args: argparse.Namespace) -> Catalog:
    if getattr(args, "schema", None):
        with open(args.schema) as handle:
            return Catalog.from_ddl(handle.read())
    return build_catalog()


def _load_database(args: argparse.Namespace) -> Database:
    """The database a ``run``/``explain`` invocation targets."""
    if args.script:
        with open(args.script) as handle:
            return Database.from_script(handle.read())
    return build_database(
        generate(SupplierScale(suppliers=25, parts_per_supplier=5))
    )


def _parse_params(pairs: list[str]) -> dict[str, SqlValue]:
    params: dict[str, SqlValue] = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        if not name or not _:
            raise ReproError(f"malformed --param {pair!r}; use NAME=VALUE")
        value: SqlValue
        if text.upper() == "NULL":
            value = NULL
        else:
            try:
                value = int(text)
            except ValueError:
                try:
                    value = float(text)
                except ValueError:
                    value = text
        params[name.upper()] = value
    return params


def _jsonable(value: Any) -> Any:
    return None if value is NULL else value


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, default=str))


def _plan(database: Database, query: Any, args: Any) -> Any:
    """The physical plan of the parsed *query*, planned the way the
    invocation executes it — cost-based when ``--stats``/``--adaptive``
    was given (the run already collected the statistics), rule order
    otherwise."""
    adaptive = args.options.adaptive
    options = None
    if args.options.stats or adaptive:
        options = PlannerOptions(use_stats=True, adaptive=adaptive)
    return Planner(database.catalog, options, database=database).plan(query)


def _print_plan(plan: Any) -> None:
    """Print a physical plan, or an analyzed execution's annotated one."""
    analyzed = isinstance(plan, AnalyzedExecution)
    print("EXPLAIN ANALYZE:" if analyzed else "physical plan:")
    print(plan.explain(indent=1))
    print()


def _write_metrics(
    path: str,
    stats: Stats,
    outcome: Any = None,
    audit: AuditTrail | None = None,
) -> None:
    """Export one invocation's counters to *path* (.prom or JSON)."""
    registry = MetricsRegistry()
    registry.record_stats(stats)
    registry.record_caches()
    if outcome is not None:
        registry.record_outcome(outcome)
    if audit is not None:
        registry.record_audit(audit)
    registry.write(path)
    print(f"-- metrics written to {path}", file=sys.stderr)


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: Algorithm 1 verdict (exit 0 = YES)."""
    catalog = _load_catalog(args)
    options = UniquenessOptions(
        use_check_constraints=args.use_check_constraints
    )
    result = test_uniqueness(args.sql, catalog, options)
    if args.json:
        _print_json(
            {
                "command": "check",
                "sql": args.sql,
                "unique": result.unique,
                "reason": result.reason,
                "witness": result.witness(),
            }
        )
    else:
        print(result.explain())
    return 0 if result.unique else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    """``repro optimize``: print the rewrite trace and final SQL."""
    catalog = _load_catalog(args)
    if args.profile == "navigational":
        optimizer = Optimizer.for_navigational(catalog)
    else:
        optimizer = Optimizer.for_relational(catalog)
    outcome = optimizer.optimize(args.sql)
    print(outcome.explain())
    print()
    print("proof sketch:")
    print(outcome.proof_sketch())
    print()
    print(outcome.sql)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: execute one query through the Connection facade."""
    database = _load_database(args)
    params = _parse_params(args.param)

    previous = set_tracing(True) if args.trace else None
    if args.trace:
        TRACER.clear()
    try:
        return _run_query(args, database, params)
    finally:
        if args.trace:
            set_tracing(previous)


def _run_query(
    args: argparse.Namespace,
    database: Database,
    params: dict[str, SqlValue],
) -> int:
    with Connection.local(database, options=args.options) as connection:
        cursor = connection.execute(args.sql, params or None)
        executed = cursor.executed
    outcome = executed.outcome
    analyzed = outcome.analysis  # AnalyzedExecution when --analyze ran
    audit: AuditTrail | None = outcome.audit
    rules, mismatch, final_sql = executed.rules, executed.mismatch, executed.sql
    result, stats = outcome.result, outcome.stats

    if args.metrics_out:
        _write_metrics(args.metrics_out, stats, outcome=outcome, audit=audit)

    if args.json:
        payload: dict[str, Any] = {
            "command": "run",
            "sql": args.sql,
            "rewritten": bool(rules),
            "final_sql": final_sql,
            "rules": rules,
            "mismatch": mismatch,
            "columns": result.columns,
            "rows": [
                [_jsonable(value) for value in row] for row in result.rows
            ],
            "row_count": len(result),
            "rowcount": executed.rowcount,
            "stats": {
                name: value
                for name, value in stats.as_dict().items()
                if value
            },
        }
        if audit is not None:
            payload["audit"] = audit.to_dicts()
        if analyzed is not None:
            payload["plan"] = analyzed.to_dict()
        elif args.plan:
            payload["plan"] = _plan(database, outcome.query, args).explain()
        if args.trace:
            payload["trace"] = TRACER.to_dicts()
        _print_json(payload)
        return 8 if mismatch else 0

    if rules and not mismatch:
        print(f"-- rewritten via {', '.join(rules)}")
        print(f"-- {final_sql}")
        print()
    if analyzed is not None:
        _print_plan(analyzed)
    elif args.plan:
        _print_plan(_plan(database, outcome.query, args))
    if outcome.rowcount >= 0:
        # A DML statement: no result rows, just the affected count.
        print(f"-- {outcome.rowcount} row(s) affected; {stats.describe()}")
    else:
        print(result.to_table())
        print()
        print(f"-- {len(result)} row(s); {stats.describe()}")
    if args.analyze and audit is not None and len(audit):
        print()
        print("rewrite audit:")
        print(audit.proof_sketch())
    if args.trace:
        print()
        print("trace:")
        print(TRACER.render())
    if mismatch:
        print(f"warning: {outcome.describe()}", file=sys.stderr)
        return 8
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: rewrite audit plus (annotated) physical plan."""
    database = _load_database(args)
    params = _parse_params(args.param)

    query = parse_query(args.sql)  # the invocation's one lex
    audit: AuditTrail | None = None
    rules: list[str] = []
    final_sql = args.sql
    if not args.no_optimize:
        if args.profile == "navigational":
            optimizer = Optimizer.for_navigational(database.catalog)
        else:
            optimizer = Optimizer.for_relational(database.catalog)
        outcome = optimizer.optimize(query)
        query, final_sql, audit = outcome.query, outcome.sql, outcome.audit
        for step in outcome.steps:
            if step.rule not in rules:
                rules.append(step.rule)

    analyzed = None
    if args.analyze:
        analyzed = execute_analyzed(query, database, params=params)
        plan = analyzed.plan
    else:
        plan = _plan(database, query, args)

    if args.json:
        payload: dict[str, Any] = {
            "command": "explain",
            "sql": args.sql,
            "rewritten": bool(rules),
            "final_sql": final_sql,
            "rules": rules,
            "plan": (
                analyzed.to_dict() if analyzed is not None else plan.explain()
            ),
        }
        if audit is not None:
            payload["audit"] = audit.to_dicts()
        _print_json(payload)
        return 0

    if rules:
        print(f"-- rewritten via {', '.join(rules)}")
        print(f"-- {final_sql}")
        print()
    _print_plan(analyzed if analyzed is not None else plan)
    if audit is not None and len(audit):
        print("rewrite audit:")
        print(audit.proof_sketch())
    return 0


def cmd_analyze_stats(args: argparse.Namespace) -> int:
    """``repro analyze-stats``: run ANALYZE and print the catalog."""
    database = _load_database(args)
    catalog = database.analyze()
    if args.json:
        _print_json(
            {
                "command": "analyze-stats",
                "version": catalog.version,
                "tables": catalog.as_dict(),
            }
        )
        return 0
    for name in sorted(catalog.table_names()):
        table = catalog.table(name)
        print(f"{name}: {table.row_count} row(s)")
        for column_name, column in table.columns.items():
            parts = [
                f"distinct={column.n_distinct}"
                + ("" if column.exact_distinct else " (estimated)"),
                f"nulls={column.null_count}",
            ]
            if column.min_value is not None:
                parts.append(f"min={column.min_value!r}")
                parts.append(f"max={column.max_value!r}")
            if column.histogram is not None:
                parts.append(
                    f"histogram={len(column.histogram.counts)} bucket(s)"
                )
            print(f"  {column_name}: {', '.join(parts)}")
    print(f"-- statistics version {catalog.version}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: batch through the embedded service, or — with
    ``--http`` — the network server until SIGTERM/SIGINT."""
    if args.shards is not None:
        if args.http is None:
            print("error: --shards requires --http", file=sys.stderr)
            return 2
        return _serve_cluster_http(args)
    database = _load_database(args)
    if args.http is not None:
        return _serve_http(args, database)
    if args.file:
        with open(args.file) as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    queries = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("--")
    ]
    if not queries:
        print("no queries to serve", file=sys.stderr)
        return 0

    failures: list[tuple[str, ReproError]] = []
    records: list[dict[str, Any]] = []
    with QueryService(
        workers=args.workers, queue_depth=args.queue_depth
    ) as service:
        session = service.session(database, options=args.options)
        tickets = service.submit_many(session, queries)
        for ticket in tickets:
            record: dict[str, Any] = {"sql": ticket.sql}
            try:
                outcome = ticket.result()
            except ReproError as error:
                record["error"] = str(error)
                record["error_type"] = type(error).__name__
                failures.append((ticket.sql, error))
            else:
                record["rows"] = len(outcome.result)
                record["rewritten"] = outcome.rewritten
                if outcome.rules:
                    record["rules"] = outcome.rules
            records.append(record)
        snapshot = session.snapshot()
        metrics = service.metrics.as_dict()

    if args.json:
        _print_json(
            {
                "command": "serve",
                "workers": args.workers,
                "queries": records,
                "completed": snapshot["completed"],
                "failed": snapshot["failed"],
                "stats": {
                    name: value
                    for name, value in snapshot["stats"].as_dict().items()
                    if value
                },
                "metrics": metrics,
            }
        )
    else:
        for record in records:
            if "error" in record:
                line = f"ERROR [{record['error_type']}] {record['error']}"
            else:
                line = f"{record['rows']} row(s)"
                if record["rewritten"]:
                    line += f" (rewritten via {', '.join(record['rules'])})"
            print(f"{record['sql']}\n  -> {line}")
        print(
            f"-- served {snapshot['completed']} quer(ies), "
            f"{snapshot['failed']} failed, on {args.workers} worker(s)"
        )
    if failures:
        return exit_code_for(failures[0][1])
    return 0


def _serve_http(args: argparse.Namespace, database: Database) -> int:
    """``repro serve --http PORT``: the network query server."""
    import signal
    import threading

    from .net.server import QueryServer

    stop = threading.Event()

    def _request_stop(signum: int, _frame: Any) -> None:
        print(
            f"-- signal {signum}: draining (in-flight queries complete)",
            file=sys.stderr,
        )
        stop.set()

    previous_handlers = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    try:
        with QueryServer(
            database,
            host=args.host,
            port=args.http,
            workers=args.workers,
            queue_depth=args.queue_depth,
            options=args.options,
        ) as server:
            print(f"-- serving on {server.url}", file=sys.stderr, flush=True)
            stop.wait()
            # __exit__ drains: stop admitting, finish in-flight, close.
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print("-- drained", file=sys.stderr)
    return 0


def _serve_cluster_http(args: argparse.Namespace) -> int:
    """``repro serve --http PORT --shards N``: the sharded cluster."""
    import signal
    import threading

    from .cluster import ClusterFrontend, ClusterCoordinator, WorkerConfig, WorkerSource

    if args.script:
        with open(args.script) as handle:
            source = WorkerSource.from_script(handle.read())
    else:
        source = WorkerSource.from_factory(
            "repro.workloads.supplier:build_database"
        )
    config = WorkerConfig(
        host="127.0.0.1",
        threads=args.workers,
        queue_depth=args.queue_depth,
        options_wire=args.options.to_wire() or None,
    )
    stop = threading.Event()

    def _request_stop(signum: int, _frame: Any) -> None:
        print(
            f"-- signal {signum}: draining cluster (workers finish in-flight "
            "queries)",
            file=sys.stderr,
        )
        stop.set()

    previous_handlers = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    coordinator = ClusterCoordinator(source, args.shards, config=config)
    try:
        with ClusterFrontend(
            coordinator,
            host=args.host,
            port=args.http,
            owns_coordinator=True,
        ) as frontend:
            print(
                f"-- serving {args.shards} shard(s) on {frontend.url}",
                file=sys.stderr,
                flush=True,
            )
            stop.wait()
            # __exit__ drains the front end, then the worker fleet.
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print("-- drained", file=sys.stderr)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """``repro client``: one query over the wire via the facade."""
    params = _parse_params(args.param)
    with api_connect(
        args.url,
        options=args.options,
        session=args.session,
        stream=args.stream,
    ) as connection:
        cursor = connection.execute(args.sql, params or None)
        executed = cursor.executed

    from .engine.result import Result

    result = Result(executed.columns, executed.rows)
    if args.json:
        _print_json(
            {
                "command": "client",
                "url": args.url,
                "sql": args.sql,
                "request_id": executed.request_id,
                "rewritten": executed.rewritten,
                "final_sql": executed.sql,
                "rules": executed.rules,
                "mismatch": executed.mismatch,
                "columns": executed.columns,
                "rows": [
                    [_jsonable(value) for value in row]
                    for row in executed.rows
                ],
                "row_count": len(executed.rows),
                "rowcount": executed.rowcount,
                "stats": executed.stats,
                **(
                    {"analysis": executed.analysis}
                    if executed.analysis is not None
                    else {}
                ),
            }
        )
        return 8 if executed.mismatch else 0

    if executed.rules and not executed.mismatch:
        print(f"-- rewritten via {', '.join(executed.rules)}")
        print(f"-- {executed.sql}")
        print()
    described = ", ".join(
        f"{name}={value}" for name, value in sorted(executed.stats.items())
    )
    # A DML response has no result columns; its rowcount is the
    # affected-row count from the envelope.
    if not executed.columns and executed.rowcount >= 0:
        print(
            f"-- {executed.rowcount} row(s) affected; "
            f"request {executed.request_id}"
            + (f"; {described}" if described else "")
        )
        if executed.mismatch:
            print("warning: safe-mode mismatch; served the verified result",
                  file=sys.stderr)
            return 8
        return 0
    print(result.to_table())
    print()
    print(
        f"-- {len(result)} row(s); request {executed.request_id}"
        + (f"; {described}" if described else "")
    )
    if executed.mismatch:
        print("warning: safe-mode mismatch; served the verified result",
              file=sys.stderr)
        return 8
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: walk the paper's Examples 1-11."""
    catalog = build_catalog()
    relational = Optimizer.for_relational(catalog)
    navigational = Optimizer.for_navigational(catalog)
    for query in PAPER_QUERIES:
        print("=" * 70)
        print(f"Example {query.example}: {query.description}")
        print(f"  {query.sql}")
        optimizer = (
            navigational if query.example in ("10", "11") else relational
        )
        outcome = optimizer.optimize(query.sql)
        if outcome.changed:
            for step in outcome.steps:
                print(f"  [{step.rule}] {step.note}")
            print(f"  => {outcome.sql}")
        else:
            print("  (no rewrite applies)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        args.options = _execution_options(args)
    except ValueError as error:
        parser.error(str(error))  # a usage error: exit 2
    handlers = {
        "check": cmd_check,
        "optimize": cmd_optimize,
        "run": cmd_run,
        "explain": cmd_explain,
        "analyze-stats": cmd_analyze_stats,
        "serve": cmd_serve,
        "client": cmd_client,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`): exit quietly
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
