"""repro — a reproduction of Paulley & Larson, "Exploiting Uniqueness in
Query Optimization" (ICDE 1994).

The library provides:

* a SQL2-subset front end (:mod:`repro.sql`),
* a schema catalog with keys and CHECK constraints (:mod:`repro.catalog`),
* a multiset execution engine with three-valued logic (:mod:`repro.engine`),
* functional-dependency derivation (:mod:`repro.fd`),
* the paper's uniqueness analysis and rewrite rules (:mod:`repro.core`),
* IMS/DL-I and object-store simulators for the paper's §6
  (:mod:`repro.ims`, :mod:`repro.oodb`), and
* workload generators for the paper's supplier schema
  (:mod:`repro.workloads`).

Quickstart::

    import repro

    db = repro.Database.from_script(DDL_AND_INSERTS)
    with repro.connect(db) as conn:          # or repro.connect("http://...")
        cursor = conn.execute("SELECT DISTINCT ...", safe_mode=True)
        rows = cursor.fetchall()

:func:`connect` returns the same :class:`Connection` facade for an
in-process database, a SQL script path, or the URL of a ``repro serve
--http`` server; every execution knob travels through one frozen
:class:`ExecutionOptions`.  The layered engine functions beneath the
facade live in their home modules: ``repro.engine.execute_planned``,
``repro.resilience.guarded.run_guarded``,
``repro.observe.execute_analyzed``.
"""

from .cache import (
    cache_stats,
    caches_enabled,
    clear_all_caches,
    set_caches_enabled,
)
from .catalog import Catalog, CatalogBuilder, TableSchema
from .core import (
    ExactOptions,
    OptimizeResult,
    Optimizer,
    UniquenessOptions,
    UniquenessResult,
    check_theorem1,
    is_duplicate_free,
    optimize,
    test_uniqueness,
)
from .engine import (
    Database,
    Planner,
    PlannerOptions,
    Result,
    Stats,
)
from .errors import (
    ExecutionError,
    NetworkError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    RemoteQueryError,
    ReproError,
    ResourceError,
    RewriteMismatchError,
    RowBudgetExceeded,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    TicketWaitTimeout,
    TransientError,
    TransientNetworkError,
)
from .resilience import (
    FAULTS,
    ExecutionGuard,
    FaultInjector,
    FaultSpec,
    ResourceBudget,
    RetryPolicy,
    call_with_retry,
)
from .observe import (
    AuditTrail,
    MetricsRegistry,
    PROCESS_METRICS,
    TRACER,
    explain_analyze,
    set_tracing,
    tracing_enabled,
)
from .resilience.guarded import GuardedOutcome
from .api import (
    Connection,
    Cursor,
    ExecutedQuery,
    connect,
    run_with_options,
)
from .options import ExecutionOptions
from .service import QueryService, QueryTicket, Session
from .stats import (
    StatisticsCatalog,
    StatisticsCostModel,
    collect_statistics,
    ensure_statistics,
)

from .sql import parse, parse_query, parse_script, to_sql
from .types import NULL

__version__ = "1.0.0"

__all__ = [
    "AuditTrail",
    "Catalog",
    "CatalogBuilder",
    "Connection",
    "Cursor",
    "Database",
    "ExecutedQuery",
    "ExecutionOptions",
    "ExactOptions",
    "ExecutionError",
    "ExecutionGuard",
    "FAULTS",
    "FaultInjector",
    "FaultSpec",
    "GuardedOutcome",
    "MetricsRegistry",
    "NULL",
    "NetworkError",
    "OptimizeResult",
    "Optimizer",
    "PROCESS_METRICS",
    "Planner",
    "PlannerOptions",
    "ProtocolError",
    "QueryCancelled",
    "QueryService",
    "QueryTicket",
    "QueryTimeout",
    "RemoteQueryError",
    "ReproError",
    "ResourceBudget",
    "ResourceError",
    "Result",
    "RetryPolicy",
    "RewriteMismatchError",
    "RowBudgetExceeded",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceShutdownError",
    "Session",
    "StatisticsCatalog",
    "StatisticsCostModel",
    "Stats",
    "TRACER",
    "TableSchema",
    "TicketWaitTimeout",
    "TransientError",
    "TransientNetworkError",
    "UniquenessOptions",
    "UniquenessResult",
    "cache_stats",
    "caches_enabled",
    "call_with_retry",
    "check_theorem1",
    "clear_all_caches",
    "collect_statistics",
    "connect",
    "ensure_statistics",
    "explain_analyze",
    "is_duplicate_free",
    "optimize",
    "run_with_options",
    "set_caches_enabled",
    "set_tracing",
    "parse",
    "parse_query",
    "parse_script",
    "test_uniqueness",
    "to_sql",
    "tracing_enabled",
]
