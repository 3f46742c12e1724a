"""Physical planner.

Compiles a query AST into a tree of physical operators.  The planner is
rule-based and deliberately simple — its job is to make execution
*strategy* a measurable variable:

* single-table conjuncts are pushed down below joins,
* equality conjuncts between two tables become hash- or sort-merge-join
  keys (configurable; nested-loop is the fallback and can be forced),
* conjuncts containing subqueries stay in a final Filter, where the
  evaluator re-executes them per row — the naive nested-loop strategy,
* DISTINCT becomes a sort- or hash-based duplicate-elimination operator.

The semantic rewrites of the paper (distinct elimination, subquery
flattening, ...) happen *before* planning, in :mod:`repro.core.rewrite`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cache import safe_fingerprint
from ..catalog.schema import Catalog
from ..catalog.table import TableSchema
from ..errors import ExecutionError, ReproError, ResourceError
from ..observe.trace import NULL_SPAN, TRACER
from ..resilience.budgets import ExecutionGuard
from ..resilience.faults import FAULTS, SITE_FINGERPRINT
from ..sql.ast import Query, SelectQuery, SetOperation, referenced_tables
from ..sql.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    IsNull,
    Literal,
    Or,
    column_refs,
    conjoin,
    conjuncts,
    contains_subquery,
)
from ..sql.parser import parse_query
from ..sql.printer import to_sql
from ..types.values import SqlValue
from .database import Database
from .operators import (
    ExecContext,
    Filter,
    HashDistinct,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    SortDistinct,
    SortMergeJoin,
    SortSetOp,
)
from .plan_cache import GLOBAL_PLAN_CACHE, PlanCache
from .projection import resolve_projection
from .result import Result
from .stats import Stats


@dataclass(frozen=True)
class PlannerOptions:
    """Strategy knobs for physical planning.

    Attributes:
        join_method: 'hash', 'merge', or 'nested' for equi-joins.
        distinct_method: 'sort' (the paper's cost model) or 'hash'.
        index_scans: turn ``col = constant`` predicates on key/FK
            columns into hash-index probes instead of SeqScan+Filter.
        use_stats: enumerate join orders by cost over collected
            statistics (:mod:`repro.stats`) instead of taking the
            FROM-clause order; falls back to FROM order when the
            database carries no fresh statistics.
        adaptive: additionally consult the adaptive correction store
            (observed cardinalities from analyzed runs) during
            estimation; implies cost-based join ordering.
    """

    join_method: str = "hash"
    distinct_method: str = "sort"
    index_scans: bool = True
    use_stats: bool = False
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.join_method not in ("hash", "merge", "nested"):
            raise ValueError(f"unknown join method {self.join_method!r}")
        if self.distinct_method not in ("sort", "hash"):
            raise ValueError(f"unknown distinct method {self.distinct_method!r}")


class Planner:
    """Compiles query ASTs to physical plans against a catalog.

    When a :class:`Database` is supplied, the planner additionally uses
    live cardinalities to pick the hash-join build side; without one,
    planning is purely catalog-driven (build side defaults to the right
    input, matching direct operator construction).
    """

    def __init__(
        self,
        catalog: Catalog,
        options: PlannerOptions | None = None,
        database: Database | None = None,
        stats: Stats | None = None,
    ) -> None:
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.database = database
        self.stats = stats

    # ------------------------------------------------------------------

    def plan(self, query: Query | str) -> PlanNode:
        """Build the physical plan for *query*."""
        if isinstance(query, str):
            query = parse_query(query)
        if isinstance(query, SelectQuery):
            return self._plan_select(query)
        if isinstance(query, SetOperation):
            left = self.plan(query.left)
            right = self.plan(query.right)
            if len(left.schema) != len(right.schema):
                raise ExecutionError(
                    "set operation operands are not union-compatible"
                )
            return SortSetOp(query.kind, query.all, left, right)
        raise ExecutionError(f"cannot plan {type(query).__name__}")

    # ------------------------------------------------------------------

    def _plan_select(self, query: SelectQuery) -> PlanNode:
        scans = self._scans(query)
        qualifier_columns = self._qualifier_columns(scans)

        local: dict[str, list[Expr]] = {alias: [] for alias in scans}
        joinable: list[tuple[frozenset[str], Expr]] = []
        residual: list[Expr] = []

        for conjunct in conjuncts(query.where):
            tables = self._tables_of(conjunct, qualifier_columns)
            if tables is None:
                residual.append(conjunct)
            elif len(tables) == 0:
                residual.append(conjunct)  # e.g. :HV = 5 — constant test
            elif len(tables) == 1:
                local[next(iter(tables))].append(conjunct)
            else:
                joinable.append((frozenset(tables), conjunct))

        # Push single-table conjuncts below the joins; where they probe
        # an auto-indexed column with a constant, use the hash index.
        planned: dict[str, PlanNode] = {}
        for alias, scan in scans.items():
            node: PlanNode | None = self._index_access(scan, local[alias])
            if node is None:
                node = scan
                if local[alias]:
                    node = Filter(node, conjoin(local[alias]))
            planned[alias] = node

        # Left-deep join tree — FROM-clause order by default, cost-based
        # enumeration over collected statistics when the options ask.
        order = list(scans)
        if len(order) > 1 and self._cost_based():
            order = self._cost_order(order, planned, joinable, qualifier_columns)
        current, pending = self._join_tree(
            order, planned, joinable, qualifier_columns
        )

        # Multi-table conjuncts that never became join predicates (or that
        # span tables not adjacent in the join order) plus subquery
        # conjuncts run in a final filter over the full product schema.
        leftovers = [conjunct for _, conjunct in pending] + residual
        if leftovers:
            current = Filter(current, conjoin(leftovers))

        names, indices = resolve_projection(query.select_list, current.schema)
        current = Project(current, indices, names)

        if query.distinct:
            if self.options.distinct_method == "sort":
                current = SortDistinct(current)
            else:
                current = HashDistinct(current)

        if query.order_by:
            current = self._order(query, current, names, indices)
        return current

    def _join_tree(
        self,
        order: list[str],
        planned: dict[str, PlanNode],
        joinable: list[tuple[frozenset[str], Expr]],
        qualifier_columns: dict[str, set[str]],
    ) -> tuple[PlanNode, list[tuple[frozenset[str], Expr]]]:
        """The left-deep join tree over *order*, plus unconsumed conjuncts."""
        current = planned[order[0]]
        covered = {order[0]}
        pending = list(joinable)
        for alias in order[1:]:
            right = planned[alias]
            applicable: list[Expr] = []
            remaining: list[tuple[frozenset[str], Expr]] = []
            for tables, conjunct in pending:
                if tables <= covered | {alias} and alias in tables:
                    applicable.append(conjunct)
                else:
                    remaining.append((tables, conjunct))
            pending = remaining
            current = self._join(
                current, right, applicable, qualifier_columns, alias
            )
            covered.add(alias)
        return current, pending

    def _cost_based(self) -> bool:
        return self.database is not None and (
            self.options.use_stats or self.options.adaptive
        )

    #: FROM lists at most this long are enumerated exhaustively; longer
    #: ones fall back to a greedy cheapest-connected-next ordering.
    MAX_EXHAUSTIVE_JOINS = 5

    def _cost_order(
        self,
        order: list[str],
        planned: dict[str, PlanNode],
        joinable: list[tuple[frozenset[str], Expr]],
        qualifier_columns: dict[str, set[str]],
    ) -> list[str]:
        """The cheapest left-deep join order by estimated cost.

        Exhaustive for short FROM lists, greedy beyond
        :data:`MAX_EXHAUSTIVE_JOINS`.  Candidates are compared with a
        strict ``<``, and the FROM-clause order is evaluated first, so
        ties (and any estimation failure) deterministically keep the
        rule order — cost-based planning can only *replace* the rule
        plan when the estimates actually separate the candidates.
        """
        from itertools import permutations

        from ..stats.estimator import estimator_for

        model = estimator_for(self.database, self.options, stats=self.stats)
        if len(order) <= self.MAX_EXHAUSTIVE_JOINS:
            candidates = [list(candidate) for candidate in permutations(order)]
            candidates.sort(key=lambda candidate: candidate != order)
        else:
            candidates = [order, self._greedy_order(order, planned, joinable, model)]
        best, best_cost = order, None
        for candidate in candidates:
            try:
                plan, _ = self._join_tree(
                    candidate, planned, joinable, qualifier_columns
                )
                cost = model.estimate(plan).cost
            except ReproError:
                continue
            if best_cost is None or cost < best_cost:
                best, best_cost = candidate, cost
        return best

    def _greedy_order(
        self,
        order: list[str],
        planned: dict[str, PlanNode],
        joinable: list[tuple[frozenset[str], Expr]],
        model,
    ) -> list[str]:
        """Cheapest-first greedy order preferring connected joins."""

        def input_rows(alias: str) -> float:
            try:
                return model.estimate(planned[alias]).rows
            except ReproError:
                return float("inf")

        rows = {alias: input_rows(alias) for alias in order}
        position = {alias: index for index, alias in enumerate(order)}
        sequence = [min(order, key=lambda a: (rows[a], position[a]))]
        remaining = [alias for alias in order if alias != sequence[0]]
        while remaining:
            covered = set(sequence)
            connected = [
                alias
                for alias in remaining
                if any(
                    alias in tables and tables <= covered | {alias}
                    for tables, _ in joinable
                )
            ]
            pool = connected or remaining
            pick = min(pool, key=lambda a: (rows[a], position[a]))
            sequence.append(pick)
            remaining.remove(pick)
        return sequence

    def _scans(self, query: SelectQuery) -> dict[str, SeqScan]:
        scans: dict[str, SeqScan] = {}
        for table_ref in query.tables:
            alias = table_ref.effective_name
            if alias in scans:
                raise ExecutionError(
                    f"duplicate correlation name {alias!r} in FROM clause"
                )
            schema = self.catalog.table(table_ref.name)
            scans[alias] = SeqScan(
                schema.name, alias, schema.column_names
            )
        return scans

    def _index_access(
        self, scan: SeqScan, local: list[Expr]
    ) -> IndexScan | None:
        """An IndexScan replacing SeqScan+Filter, or None if ineligible.

        Eligible conjuncts have the shape ``column = constant`` (literal
        or host variable) on a key or FOREIGN KEY column.  Preference:
        a fully-covered candidate key (a composite probe returning at
        most one row), else a single indexable column.  Everything not
        consumed by the probe stays as the residual, so the plan filters
        exactly the conjuncts the Filter would have.
        """
        if not self.options.index_scans or not local:
            return None
        schema = self.catalog.table(scan.table_name)
        indexable: set[str] = set()
        for key in schema.candidate_keys:
            indexable.update(key.columns)
        for fk in schema.foreign_keys:
            indexable.update(fk.columns)
        if not indexable:
            return None

        probes: dict[str, tuple[Expr, Expr]] = {}  # column -> (conjunct, const)
        for conjunct in local:
            found = self._constant_equality(conjunct, scan, schema)
            if found is None:
                continue
            column, const = found
            if column in indexable and column not in probes:
                probes[column] = (conjunct, const)
        if not probes:
            return None

        key_columns: tuple[str, ...] | None = None
        for key in schema.candidate_keys:
            if all(column in probes for column in key.columns):
                key_columns = key.columns
                break
        if key_columns is None:
            for column in schema.column_names:  # deterministic pick
                if column in probes:
                    key_columns = (column,)
                    break
        assert key_columns is not None

        consumed = {id(probes[column][0]) for column in key_columns}
        key_exprs = tuple(probes[column][1] for column in key_columns)
        residual = [conjunct for conjunct in local if id(conjunct) not in consumed]
        return IndexScan(
            schema.name,
            scan.alias,
            schema.column_names,
            key_columns,
            key_exprs,
            conjoin(residual) if residual else None,
        )

    @staticmethod
    def _constant_equality(
        conjunct: Expr, scan: SeqScan, schema: TableSchema
    ) -> tuple[str, Expr] | None:
        """Match ``column = constant`` against *scan*'s table.

        Returns (column name, constant expression) or None.  NULL
        literals still match: the index probe returns no rows, exactly
        what evaluating ``column = NULL`` row-by-row would keep.
        """
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        for ref, const in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(ref, ColumnRef):
                continue
            if not isinstance(const, (Literal, HostVar)):
                continue
            if ref.qualifier is not None and ref.qualifier != scan.alias:
                continue
            if ref.column in schema.column_names:
                return ref.column, const
        return None

    def _qualifier_columns(
        self, scans: dict[str, SeqScan]
    ) -> dict[str, set[str]]:
        return {
            alias: {column.name for column in scan.schema.columns}
            for alias, scan in scans.items()
        }

    def _tables_of(
        self, conjunct: Expr, qualifier_columns: dict[str, set[str]]
    ) -> set[str] | None:
        """Qualifiers referenced by *conjunct*, or None if unplannable.

        Conjuncts containing subqueries are left for the final filter
        (their inner column references must not be mis-attributed).
        """
        if contains_subquery(conjunct):
            return None
        tables: set[str] = set()
        for ref in column_refs(conjunct):
            if ref.qualifier is not None:
                if ref.qualifier not in qualifier_columns:
                    return None  # correlated outer reference
                tables.add(ref.qualifier)
                continue
            owners = [
                alias
                for alias, columns in qualifier_columns.items()
                if ref.column in columns
            ]
            if len(owners) != 1:
                return None  # unknown or ambiguous: resolve at runtime
            tables.add(owners[0])
        return tables

    def _join(
        self,
        left: PlanNode,
        right: PlanNode,
        applicable: list[Expr],
        qualifier_columns: dict[str, set[str]],
        right_alias: str,
    ) -> PlanNode:
        if self.options.join_method == "nested" or not applicable:
            predicate = conjoin(applicable) if applicable else None
            return NestedLoopJoin(left, right, predicate)

        left_keys: list[int] = []
        right_keys: list[int] = []
        null_safe: list[bool] = []
        residual: list[Expr] = []
        for conjunct in applicable:
            keys = self._equi_keys(conjunct, left, right, right_alias)
            if keys is None:
                residual.append(conjunct)
            else:
                left_keys.append(keys[0])
                right_keys.append(keys[1])
                null_safe.append(keys[2])

        if not left_keys:
            return NestedLoopJoin(left, right, conjoin(applicable))

        residual_pred = conjoin(residual) if residual else None
        if self.options.join_method == "merge":
            return SortMergeJoin(
                left, right, left_keys, right_keys, residual_pred, null_safe
            )
        return HashJoin(
            left,
            right,
            left_keys,
            right_keys,
            residual_pred,
            null_safe,
            build_left=self._build_left(left, right),
        )

    def _build_left(self, left: PlanNode, right: PlanNode) -> bool:
        """Build the hash table on the left when it is estimated smaller.

        Requires a database (for cardinalities); without one — or when
        the cost model cannot estimate an input — keep the default
        build-on-right, which matches direct operator construction.
        """
        if self.database is None:
            return False
        if self._cost_based():
            from ..stats.estimator import estimator_for

            model = estimator_for(self.database, self.options, stats=self.stats)
        else:
            from .cost import CostModel  # deferred: cost imports operators

            model = CostModel(self.database)
        try:
            return model.estimate(left).rows < model.estimate(right).rows
        except ReproError:
            return False

    def _equi_keys(
        self,
        conjunct: Expr,
        left: PlanNode,
        right: PlanNode,
        right_alias: str,
    ) -> tuple[int, int, bool] | None:
        """Key indices plus a null-safe flag for a joinable conjunct.

        Recognizes plain equality ``a = b`` and the null-safe pattern
        the Theorem 3 rewrite generates::

            (a IS NULL AND b IS NULL) OR a = b

        which is SQL's IS NOT DISTINCT FROM — joinable with ≐ keys.
        """
        null_safe = False
        comparison = conjunct
        if isinstance(conjunct, Or):
            pair = self._null_safe_pattern(conjunct)
            if pair is None:
                return None
            comparison = pair
            null_safe = True
        if not isinstance(comparison, Comparison) or comparison.op != "=":
            return None
        a, b = comparison.left, comparison.right
        if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
            return None
        for first, second in ((a, b), (b, a)):
            if second.qualifier != right_alias:
                continue
            left_index = left.schema.try_index_of(first.qualifier, first.column)
            right_index = right.schema.try_index_of(
                second.qualifier, second.column
            )
            if left_index is not None and right_index is not None:
                return left_index, right_index, null_safe
        return None

    @staticmethod
    def _null_safe_pattern(disjunction: Or) -> Comparison | None:
        """Match ``(a IS NULL AND b IS NULL) OR a = b``; return the
        equality when the null tests cover exactly its two columns."""
        if len(disjunction.operands) != 2:
            return None
        null_part: And | None = None
        eq_part: Comparison | None = None
        for operand in disjunction.operands:
            if isinstance(operand, And):
                null_part = operand
            elif isinstance(operand, Comparison) and operand.op == "=":
                eq_part = operand
        if null_part is None or eq_part is None:
            return None
        if not isinstance(eq_part.left, ColumnRef) or not isinstance(
            eq_part.right, ColumnRef
        ):
            return None
        if len(null_part.operands) != 2:
            return None
        tested: set[ColumnRef] = set()
        for atom in null_part.operands:
            if not isinstance(atom, IsNull) or atom.negated:
                return None
            if not isinstance(atom.operand, ColumnRef):
                return None
            tested.add(atom.operand)
        if tested != {eq_part.left, eq_part.right}:
            return None
        return eq_part

    def _order(
        self,
        query: SelectQuery,
        current: PlanNode,
        names: list[str],
        indices: list[int],
    ) -> PlanNode:
        positions: list[int] = []
        ascending: list[bool] = []
        for item in query.order_by:
            expr = item.expr
            if not isinstance(expr, ColumnRef):
                raise ExecutionError("ORDER BY supports column references only")
            if expr.qualifier is None and expr.column in names:
                positions.append(names.index(expr.column))
            else:
                raise ExecutionError(
                    "ORDER BY column must appear in the select list"
                )
            ascending.append(item.ascending)
        return Sort(current, positions, ascending)


def execute_plan(
    plan: PlanNode,
    database: Database,
    params: dict[str, SqlValue] | None = None,
    stats: Stats | None = None,
    use_indexes: bool = True,
    guard: ExecutionGuard | None = None,
    engine_mode: str | None = None,
    batch_rows: int | None = None,
    analysis=None,
) -> Result:
    """Run a physical plan to completion.

    *use_indexes* governs the correlated-subquery index probes of the
    embedded reference interpreter (plan-level IndexScan choices were
    already fixed at planning time).  *guard* receives a cooperative
    tick per processed row; budget violations abort the execution with
    a :class:`~repro.errors.ResourceError` subclass.

    *engine_mode* picks the format of the plan's scan → filter →
    project pipelines: ``"tuple"`` streams rows through the compiled
    closures, ``"vectorized"`` runs those pipelines on column batches
    (every other operator reads their rows, as in tuple mode), and
    ``"auto"`` batches exactly when faults are disarmed.  The mode is
    execution-time only — same plan, same output sequence.
    *batch_rows* sizes the column batches.

    *analysis* (a :class:`~repro.observe.analyze.PlanAnalysis`) turns
    this same execution into EXPLAIN ANALYZE: the operators account
    their actuals into it as they run.  *plan* — cached or not — is
    never modified.
    """
    ctx = ExecContext(
        database,
        params=params,
        stats=stats,
        use_indexes=use_indexes,
        guard=guard,
        engine_mode=engine_mode,
        batch_rows=batch_rows,
        analysis=analysis,
    )
    if analysis is not None:
        analysis.begin(plan)
    # One attribute test when tracing is off — the hot path stays bare.
    span_cm = (
        TRACER.span("plan.execute", stats=ctx.stats, root=plan.label())
        if TRACER.enabled
        else NULL_SPAN
    )
    with span_cm as span:
        rows = list(plan.rows(ctx))
        if analysis is not None:
            analysis.finish()
        ctx.stats.rows_output += len(rows)
        if span:
            span.attributes["rows"] = len(rows)
            span.attributes["engine_mode"] = ctx.engine_mode
            if guard is not None:
                span.attributes["guard_rows"] = guard.rows_processed
    return Result(plan.schema.output_names(), rows)


def plan_cache_fingerprint(query: "Query | str", database) -> tuple | None:
    """The fingerprint component of a plan-cache key, table-scoped.

    For a parsed query against a plain :class:`Database`, the
    fingerprint covers only the tables the query references — the
    catalog fingerprint plus each referenced table's data version.  A
    commit bumps exactly its touched tables, so plans (and anything
    else keyed this way) for *other* tables survive the write; this is
    the incremental-invalidation contract the
    ``invalidation_scoped_total`` counter measures.

    Wrapped databases (shard slices, transaction views), unparsable
    SQL, and any extraction failure fall back to the whole-database
    fingerprint via :func:`~repro.cache.safe_fingerprint` — fail-closed,
    never finer-grained than justified.  The scoped shape carries a
    ``"tables"`` discriminator so it can never alias the full
    ``(catalog, data-sum)`` fingerprint.  Raw SQL is parsed just for
    scoping; the text itself sits in the key beside the fingerprint,
    so two queries never share an entry through this parse.
    """
    if type(database) is Database:
        try:
            ast = parse_query(query) if isinstance(query, str) else query
            tables = referenced_tables(ast)
        except Exception:
            tables = None  # unparsable / malformed: fall back to full scope
        if tables:
            try:
                FAULTS.check(SITE_FINGERPRINT)
                return (
                    "tables",
                    database.catalog.fingerprint(),
                    database.table_versions(tables),
                )
            except ResourceError:
                raise
            except Exception:
                return None  # fail-closed: skip the cache entirely
    return safe_fingerprint(database)


def execute_planned(
    query: Query | str,
    database: Database,
    params: dict[str, SqlValue] | None = None,
    stats: Stats | None = None,
    options: PlannerOptions | None = None,
    use_indexes: bool = True,
    plan_cache: PlanCache | None = None,
    guard: ExecutionGuard | None = None,
    engine_mode: str | None = None,
    batch_rows: int | None = None,
    sql_text: str | None = None,
    analysis=None,
) -> Result:
    """Plan and execute *query* with the physical engine.

    Plans are served from *plan_cache* (the process-wide cache by
    default) keyed on a fingerprint, the query text, and the planner
    options — DDL or a mutation of a *referenced* table moves the
    fingerprint, so a stale plan can never be reused, while commits to
    unrelated tables leave the entry alive
    (:func:`plan_cache_fingerprint`).  Host-variable bindings do not
    enter the key: cached plans resolve them at execution time.

    The cache is fail-closed: if the fingerprint cannot be computed, or
    the lookup itself fails, the query is planned from scratch and
    nothing is cached — a stale plan is never served in exchange for a
    broken fingerprint.

    *engine_mode* and *batch_rows* are execution-time only and stay out
    of the cache key: the vectorized engine runs the identical plan,
    just batched.

    *sql_text* is ``to_sql(query)`` when the caller already printed the
    parsed *query* (the cache keys on it); omitted, it is printed here.
    SQL text is parsed once, here, and keys on itself.

    *analysis* is :func:`execute_plan`'s sink; here it additionally
    receives the estimates of the cost model the plan was chosen with.
    A cached plan serves an analyzed execution like any other.
    """
    options = options or PlannerOptions()
    if not use_indexes and options.index_scans:
        options = replace(options, index_scans=False)
    stats = stats if stats is not None else Stats()
    cache = plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
    if isinstance(query, str):
        sql_text, query = query, parse_query(query)
    elif sql_text is None:
        sql_text = to_sql(query)
    traced = TRACER.enabled  # one test up front; hot path stays bare
    span_cm = (
        TRACER.span("query.execute_planned", stats=stats, sql=sql_text)
        if traced
        else NULL_SPAN
    )
    with span_cm as span:
        plan = None
        key = None
        fingerprint = plan_cache_fingerprint(query, database)
        if fingerprint is None:
            stats.cache_skips += 1
        else:
            key = (fingerprint, sql_text, options)
            if options.use_stats or options.adaptive:
                # Statistics and correction versions enter the key so a
                # re-ANALYZE or new adaptive observations force a replan
                # instead of serving a plan picked under stale numbers.
                from ..stats.adaptive import GLOBAL_CORRECTIONS

                statistics = getattr(database, "statistics", None)
                key = (
                    fingerprint,
                    sql_text,
                    options,
                    statistics.version if statistics is not None else 0,
                    GLOBAL_CORRECTIONS.version if options.adaptive else 0,
                )
            try:
                if traced:
                    with TRACER.span("plan_cache.lookup"):
                        plan = cache.lookup(key)
                else:
                    plan = cache.lookup(key)
            except ResourceError:
                raise
            except Exception:
                stats.cache_skips += 1
                key = None
        if plan is None:
            stats.plan_cache_misses += 1
            if span:
                span.attributes["plan_cache"] = "miss"
            planner = Planner(
                database.catalog, options, database=database, stats=stats
            )
            if traced:
                with TRACER.span("planner.plan"):
                    plan = planner.plan(query)
            else:
                plan = planner.plan(query)
            if key is not None:
                cache.store(key, plan)
        else:
            stats.plan_cache_hits += 1
            if span:
                span.attributes["plan_cache"] = "hit"
        result = execute_plan(
            plan,
            database,
            params=params,
            stats=stats,
            use_indexes=use_indexes,
            guard=guard,
            engine_mode=engine_mode,
            batch_rows=batch_rows,
            analysis=analysis,
        )
        if analysis is not None:
            from ..stats.estimator import estimator_for

            analysis.attach_estimates(
                estimator_for(database, options, stats=stats)
            )
        return result
