"""Reference query executor.

This interpreter implements the paper's algebra *directly*: FROM clauses
form extended Cartesian products, WHERE filters with the
false-interpretation, projection is ALL or DISTINCT, and set operations
follow the SQL2 ``min(j,k)`` / ``max(j-k, 0)`` multiset semantics of
Section 2.2.  Correlated subqueries re-execute naively for every
candidate row — the very strategy whose cost the paper's rewrites avoid.

It is deliberately strategy-free: the cost-aware physical operators live
in :mod:`repro.engine.operators` and :mod:`repro.engine.planner`.  The
property-based tests execute every query through both paths and require
identical results.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.errors import (
    ExecutionError,
    ReproError,
    ResourceError,
    UnknownTableError,
)
from repro.observe.trace import NULL_SPAN, TRACER
from repro.resilience.budgets import ExecutionGuard
from repro.resilience.faults import FAULTS, SITE_OPERATOR
from repro.sql.ast import (
    Query,
    SelectItem,
    SelectQuery,
    SetOperation,
    SetOpKind,
    Star,
)
from repro.sql.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    Literal,
    conjuncts,
)
from repro.sql.parser import parse_query
from repro.types.values import SqlValue, order_key, row_sort_key
from repro.engine.database import Database
from repro.engine.evaluator import Evaluator
from repro.engine.projection import resolve_projection
from repro.engine.result import Result
from repro.engine.schema import ColumnInfo, RelSchema, Scope
from repro.engine.stats import Stats


#: Sentinel: a conjunct operand that cannot serve as an index probe.
_NO_PROBE = object()


def _executor_tick_noop(rows: int = 1) -> None:
    """The unguarded, fault-free checkpoint: nothing to do."""


class Executor:
    """Executes queries against a :class:`Database`.

    With ``use_indexes`` (the default), single-table SELECT blocks whose
    WHERE carries a top-level ``column = constant-or-outer-reference``
    conjunct on an auto-indexed column are evaluated over the hash
    index's matching bucket instead of the full table.  Correlated
    EXISTS/IN subqueries — re-executed once per outer candidate row —
    are exactly this shape, so each re-execution becomes an O(1) probe.
    The *full* WHERE still runs over the candidates, so results are
    identical to the scan; only the rows that could never qualify (they
    fail the probed equality) are skipped.
    """

    def __init__(
        self,
        database: Database,
        params: dict[str, SqlValue] | None = None,
        stats: Stats | None = None,
        use_indexes: bool = True,
        guard: ExecutionGuard | None = None,
    ) -> None:
        self.database = database
        self.stats = stats or Stats()
        self.use_indexes = use_indexes
        self.guard = guard
        self.evaluator = Evaluator(
            params=params, stats=self.stats, subquery_runner=self._run_subquery
        )
        # Bind the cheapest checkpoint for the common configurations; the
        # method below stays as the general (faults-armed) path.
        if not FAULTS.armed:
            if guard is not None:
                self._tick = guard.tick
            else:
                self._tick = _executor_tick_noop

    def _tick(self) -> None:
        """Cooperative checkpoint for the interpreter's row loops."""
        if self.guard is not None:
            self.guard.tick()
        if FAULTS.armed:
            FAULTS.check(SITE_OPERATOR)

    # ------------------------------------------------------------------
    # public API

    def execute(self, query: Query | str) -> Result:
        """Execute *query* (AST or SQL text) and return its result."""
        if isinstance(query, str):
            query = parse_query(query)
        span_cm = (
            TRACER.span("interpreter.execute", stats=self.stats)
            if TRACER.enabled
            else NULL_SPAN
        )
        with span_cm as span:
            names, schema, rows = self._query(query, outer=None)
            rows = list(rows)
            self.stats.rows_output += len(rows)
            if span:
                span.attributes["rows"] = len(rows)
        return Result(names, rows)

    # ------------------------------------------------------------------
    # query dispatch

    def _query(
        self, query: Query, outer: Scope | None
    ) -> tuple[list[str], RelSchema, list[tuple]]:
        if isinstance(query, SelectQuery):
            return self._select(query, outer)
        if isinstance(query, SetOperation):
            return self._set_operation(query, outer)
        raise ExecutionError(f"cannot execute {type(query).__name__}")

    def _run_subquery(self, query: object, scope: Scope) -> Iterable[tuple]:
        if not isinstance(query, (SelectQuery, SetOperation)):
            raise ExecutionError("subquery is not a query AST")
        _, _, rows = self._query(query, outer=scope)
        return rows

    # ------------------------------------------------------------------
    # SELECT blocks

    def _select(
        self, query: SelectQuery, outer: Scope | None
    ) -> tuple[list[str], RelSchema, list[tuple]]:
        frames = self._table_frames(query)
        merged = RelSchema(())
        for schema, _ in frames:
            merged = merged.concat(schema)

        names, indices = self._projection(query, merged)

        candidates = None
        if self.use_indexes and len(frames) == 1 and query.where is not None:
            candidates = self._index_candidates(query, outer)
        if candidates is None:
            candidates = self._product_rows(frames)

        output: list[tuple] = []
        for combined in candidates:
            self._tick()
            scope = Scope(merged, combined, outer=outer)
            if not self.evaluator.qualifies(query.where, scope):
                continue
            output.append(tuple(combined[i] for i in indices))

        if query.distinct:
            output = self._sort_distinct(output)

        if query.order_by:
            output = self._order(query, names, merged, indices, output)

        out_schema = RelSchema(ColumnInfo(None, name) for name in names)
        return names, out_schema, output

    def _table_frames(
        self, query: SelectQuery
    ) -> list[tuple[RelSchema, list[tuple]]]:
        frames: list[tuple[RelSchema, list[tuple]]] = []
        seen: set[str] = set()
        for table_ref in query.tables:
            name = table_ref.effective_name
            if name in seen:
                raise ExecutionError(
                    f"duplicate correlation name {name!r} in FROM clause"
                )
            seen.add(name)
            schema = self.database.catalog.table(table_ref.name)
            rel = RelSchema.for_table(name, schema.column_names)
            frames.append((rel, self.database.table(table_ref.name).rows))
        return frames

    def _index_candidates(
        self, query: SelectQuery, outer: Scope | None
    ) -> Iterator[tuple] | None:
        """Candidate rows for a single-table block via a hash-index probe.

        Returns None when no WHERE conjunct is usable (the caller scans).
        Usable means a top-level ``column = operand`` where the column is
        auto-indexed (key or FK column of the one FROM table) and the
        operand is a literal, a bound host variable, or an outer-scope
        column reference.  Soundness: the conjunct is AND-ed into WHERE,
        so every qualifying row must carry the probed value — restricting
        the scan to the index bucket (and still applying the full WHERE)
        cannot change the result.  A NULL probe matches nothing, exactly
        as the equality would.
        """
        table_ref = query.tables[0]
        alias = table_ref.effective_name
        data = self.database.table(table_ref.name)
        indexable = data.schema.indexable_columns()
        if not indexable:
            return None
        inner_columns = set(data.schema.column_names)
        for conjunct in conjuncts(query.where):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            for ref, operand in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(ref, ColumnRef):
                    continue
                if ref.qualifier is not None and ref.qualifier != alias:
                    continue
                if ref.column not in indexable:
                    continue
                value = self._probe_value(operand, alias, inner_columns, outer)
                if value is _NO_PROBE:
                    continue
                self.stats.index_probes += 1
                try:
                    matches = data.index_lookup((ref.column,), (value,))
                except ResourceError:
                    raise
                except Exception:
                    # Index machinery failed (e.g. an injected build
                    # fault): fall back to the full scan, which applies
                    # the identical WHERE and so returns the same rows.
                    self.stats.index_fallbacks += 1
                    return None
                self.stats.index_rows += len(matches)
                return iter(matches)
        return None

    def _probe_value(
        self,
        operand: Expr,
        alias: str,
        inner_columns: set[str],
        outer: Scope | None,
    ):
        """Evaluate a probe operand without any inner row, or _NO_PROBE.

        Anything that *might* reference the inner table, or that fails to
        evaluate (unknown column, unbound host variable), falls back to
        the scan path — which reproduces the identical error, if any.
        """
        if isinstance(operand, Literal):
            return operand.value
        if isinstance(operand, HostVar):
            if operand.name not in self.evaluator.params:
                return _NO_PROBE
            return self.evaluator.params[operand.name]
        if isinstance(operand, ColumnRef):
            if operand.qualifier is None:
                if operand.column in inner_columns:
                    return _NO_PROBE  # resolves to the inner table
            elif operand.qualifier == alias:
                return _NO_PROBE
            if outer is None:
                return _NO_PROBE
            try:
                return outer.resolve(operand)
            except ReproError:
                return _NO_PROBE
        return _NO_PROBE

    def _product_rows(
        self, frames: list[tuple[RelSchema, list[tuple]]]
    ) -> Iterator[tuple]:
        row_lists = [rows for _, rows in frames]
        for parts in itertools.product(*row_lists):
            self.stats.rows_joined += 1
            combined: tuple = ()
            for part in parts:
                combined += part
            yield combined

    def _projection(
        self, query: SelectQuery, merged: RelSchema
    ) -> tuple[list[str], list[int]]:
        return resolve_projection(query.select_list, merged)

    def _sort_distinct(self, rows: list[tuple]) -> list[tuple]:
        """Sort-based duplicate elimination, charging sort cost."""
        self.stats.sorts += 1
        self.stats.sort_rows += len(rows)
        rows_sorted = sorted(rows, key=row_sort_key)
        output: list[tuple] = []
        previous_key = None
        for row in rows_sorted:
            key = row_sort_key(row)
            if key != previous_key:
                output.append(row)
                previous_key = key
            else:
                self.stats.duplicates_removed += 1
        return output

    def _order(
        self,
        query: SelectQuery,
        names: list[str],
        merged: RelSchema,
        indices: list[int],
        rows: list[tuple],
    ) -> list[tuple]:
        """Apply ORDER BY over the projected rows.

        Order keys must reference projected columns (by output name or by
        their qualified source name).
        """
        key_specs: list[tuple[int, bool]] = []
        for item in query.order_by:
            expr = item.expr
            if not isinstance(expr, ColumnRef):
                raise ExecutionError("ORDER BY supports column references only")
            if expr.qualifier is None and expr.column in names:
                position = names.index(expr.column)
            else:
                source = merged.index_of(expr.qualifier, expr.column)
                if source not in indices:
                    raise ExecutionError(
                        "ORDER BY column must appear in the select list"
                    )
                position = indices.index(source)
            key_specs.append((position, item.ascending))
        self.stats.sorts += 1
        self.stats.sort_rows += len(rows)
        return sorted(rows, key=order_key(key_specs))

    # ------------------------------------------------------------------
    # set operations

    def _set_operation(
        self, operation: SetOperation, outer: Scope | None
    ) -> tuple[list[str], RelSchema, list[tuple]]:
        left_names, left_schema, left_rows = self._query(operation.left, outer)
        right_names, _, right_rows = self._query(operation.right, outer)
        if len(left_names) != len(right_names):
            raise ExecutionError(
                "set operation operands are not union-compatible"
            )

        kind, all_rows = operation.kind, operation.all
        if kind is SetOpKind.UNION:
            # Concatenation, deduplicated by one sort unless ALL.
            output = list(left_rows) + list(right_rows)
            if not all_rows:
                output = self._sort_distinct(output)
        else:
            # Charge the classic sort-both-operands cost model the paper
            # assumes for Intersect (§5.3).
            self.stats.sorts += 2
            self.stats.sort_rows += len(left_rows) + len(right_rows)
            left_counts, left_repr = _count_rows(left_rows)
            right_counts, _ = _count_rows(right_rows)
            output = []
            for key, j in left_counts.items():
                k = right_counts.get(key, 0)
                if kind is SetOpKind.INTERSECT:
                    copies = min(j, k) if all_rows else (1 if min(j, k) > 0 else 0)
                else:  # EXCEPT
                    copies = max(j - k, 0) if all_rows else (1 if k == 0 else 0)
                output.extend([left_repr[key]] * copies)

        out_schema = RelSchema(ColumnInfo(None, name) for name in left_names)
        return left_names, out_schema, output


def _count_rows(rows: Sequence[tuple]) -> tuple[Counter, dict]:
    """Multiset of canonical keys plus a representative row per key."""
    counts: Counter = Counter()
    representatives: dict = {}
    for row in rows:
        key = row_sort_key(row)
        counts[key] += 1
        representatives.setdefault(key, row)
    return counts, representatives


def execute(
    query: Query | str,
    database: Database,
    params: dict[str, SqlValue] | None = None,
    stats: Stats | None = None,
    use_indexes: bool = True,
) -> Result:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(
        database, params=params, stats=stats, use_indexes=use_indexes
    ).execute(query)
