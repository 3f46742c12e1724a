"""SQL gateway over the IMS simulator.

Models the University-of-Waterloo multidatabase gateway the paper's §6.1
describes: SQL queries against *relational views* of an IMS hierarchy
are translated into iterative DL/I programs.  Two layers:

* the **data access layer** translates supported query shapes directly
  into GU/GN/GNP programs (root scans, parent/child joins, and
  correlated EXISTS probes);
* the **post-processing layer** handles whatever the data access layer
  cannot — residual predicates, projection, DISTINCT (a sort), ORDER BY
  — at a cost the gateway counts separately, since the paper's premise
  is that plans confined to the data access layer are cheaper.

Relational view (Figure 2): the root segment maps to a table of its
fields; each child segment maps to a table of the root's key field (a
*virtual column*) followed by the child's own fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.builder import CatalogBuilder
from ..catalog.schema import Catalog
from ..errors import ImsError, MissingHostVariableError, UnsupportedQueryError
from ..observe.trace import NULL_SPAN, TRACER
from ..resilience.retry import RetryPolicy, call_with_retry
from ..engine.evaluator import Evaluator
from ..engine.projection import resolve_projection
from ..engine.result import Result
from ..engine.schema import RelSchema, Scope
from ..sql.ast import Query, SelectQuery
from ..sql.expressions import (
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    HostVar,
    Literal,
    conjoin,
    conjuncts,
)
from ..sql.parser import parse_query
from ..analysis.binding import qualify, table_columns
from ..types.values import SqlValue, row_sort_key, sort_key
from .database import ImsDatabase, Segment
from .dli import SSA, Dli, DliStats
from .programs import exists_strategy, join_strategy, root_scan_strategy


@dataclass
class GatewayStats:
    """Cost account for one gateway execution."""

    dli: DliStats = field(default_factory=DliStats)
    strategy: str = ""
    post_filter_evals: int = 0
    post_rows_sorted: int = 0
    used_post_processing: bool = False
    retries: int = 0

    def reset_attempt(self) -> None:
        """Zero per-attempt counters before a retry re-runs the program.

        DL/I reads are side-effect free, so a retry replays the whole
        iterative program; counters must reflect the attempt that
        succeeded, not the sum over attempts (``retries`` records how
        many attempts were abandoned).
        """
        self.dli.reset()
        self.strategy = ""
        self.post_filter_evals = 0
        self.post_rows_sorted = 0
        self.used_post_processing = False

    def describe(self) -> str:
        """Compact one-line summary: strategy, DL/I work, post work."""
        parts = [f"strategy={self.strategy}", self.dli.describe()]
        if self.used_post_processing:
            parts.append(
                f"post: filter_evals={self.post_filter_evals}, "
                f"rows_sorted={self.post_rows_sorted}"
            )
        if self.retries:
            parts.append(f"retries={self.retries}")
        return "; ".join(parts)


class ImsGateway:
    """Executes a supported SQL subset against an :class:`ImsDatabase`."""

    def __init__(
        self,
        database: ImsDatabase,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.database = database
        self.retry_policy = retry_policy or RetryPolicy()
        root = database.hierarchy.root
        if root.key_field is None:
            raise ImsError("the gateway requires a keyed root segment")
        self.root_name = root.name
        self.root_key = root.key_field
        self._child_names = {child.name for child in root.children}

    # ------------------------------------------------------------------
    # relational view

    def catalog(self) -> Catalog:
        """The relational-view catalog for this hierarchy."""
        builder = CatalogBuilder()
        root = self.database.hierarchy.root
        table = builder.table(root.name)
        for name in root.fields:
            table.column(name)
        table.primary_key(root.key_field)
        builder = table.finish()
        for child in root.children:
            table = builder.table(child.name)
            table.column(self.root_key)  # virtual parent-key column
            for name in child.fields:
                table.column(name)
            if child.key_field is not None:
                table.primary_key(self.root_key, child.key_field)
            table.foreign_key(self.root_key, root.name, self.root_key)
            builder = table.finish()
        return builder.build()

    def view_columns(self, segment_name: str) -> list[str]:
        """Columns of the relational view of one segment type."""
        segment_name = segment_name.upper()
        if segment_name == self.root_name:
            return list(self.database.hierarchy.root.fields)
        child = self.database.hierarchy.segment_type(segment_name)
        return [self.root_key] + list(child.fields)

    # ------------------------------------------------------------------
    # execution

    def execute(
        self,
        query: Query | str,
        params: dict[str, SqlValue] | None = None,
        stats: GatewayStats | None = None,
    ) -> Result:
        """Run *query* through the gateway.

        Transient DL/I failures (:class:`~repro.errors.TransientError`)
        are retried with bounded, jittered exponential backoff.  DL/I
        reads have no side effects here, so a retry replays the whole
        iterative program from scratch; per-attempt counters are reset so
        *stats* describes the successful attempt, with ``stats.retries``
        counting the abandoned ones.

        Raises:
            UnsupportedQueryError: when no DL/I translation exists.
            TransientError: when every retry attempt is exhausted.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, SelectQuery):
            raise UnsupportedQueryError(
                "the gateway executes query specifications only"
            )
        stats = stats if stats is not None else GatewayStats()
        params = {key.upper(): value for key, value in (params or {}).items()}

        def on_retry(attempt: int, error: BaseException) -> None:
            stats.retries += 1
            stats.reset_attempt()

        span_cm = (
            TRACER.span("ims.execute") if TRACER.enabled else NULL_SPAN
        )
        with span_cm as span:
            result = call_with_retry(
                lambda: self._translate(query, params, stats),
                policy=self.retry_policy,
                on_retry=on_retry,
            )
            if span:
                span.attributes.update(
                    strategy=stats.strategy,
                    dli_calls=stats.dli.total_calls(),
                    rows=len(result),
                )
                if stats.retries:
                    span.attributes["retries"] = stats.retries
        return result

    # ------------------------------------------------------------------
    # translation

    def _translate(
        self,
        query: SelectQuery,
        params: dict[str, SqlValue],
        stats: GatewayStats,
    ) -> Result:
        aliases = {}
        for ref in query.tables:
            name = ref.name.upper()
            if name != self.root_name and name not in self._child_names:
                raise UnsupportedQueryError(f"unknown segment table {ref.name}")
            aliases[ref.effective_name] = name
        columns = {
            alias: self.view_columns(segment)
            for alias, segment in aliases.items()
        }
        where = (
            qualify(query.where, columns, allow_correlated=False)
            if query.where is not None
            else None
        )

        root_aliases = [a for a, s in aliases.items() if s == self.root_name]
        child_aliases = [a for a, s in aliases.items() if s != self.root_name]

        if len(root_aliases) == 1 and not child_aliases:
            rows, schema, residual = self._root_block(
                query, root_aliases[0], where, params, stats
            )
        elif len(root_aliases) == 1 and len(child_aliases) == 1:
            rows, schema, residual = self._join_block(
                query,
                root_aliases[0],
                child_aliases[0],
                aliases[child_aliases[0]],
                where,
                params,
                stats,
            )
        elif not root_aliases and len(child_aliases) == 1:
            rows, schema, residual = self._child_scan_block(
                query, child_aliases[0], aliases[child_aliases[0]], where,
                params, stats,
            )
        else:
            raise UnsupportedQueryError(
                "the gateway supports root scans, one root/child join, or a "
                "single child scan"
            )

        return self._post_process(query, rows, schema, residual, params, stats)

    def _root_block(
        self,
        query: SelectQuery,
        alias: str,
        where: Expr | None,
        params: dict[str, SqlValue],
        stats: GatewayStats,
    ):
        parts = conjuncts(where)
        exists_parts = [
            p for p in parts if isinstance(p, Exists) and not p.negated
        ]
        plain_parts = [p for p in parts if p not in exists_parts]
        root_ssa, residual = self._pick_ssa(
            self.root_name, alias, plain_parts, params
        )

        if len(exists_parts) == 1:
            child_ssa, child_alias, child_residual = self._exists_child_ssa(
                exists_parts[0], alias, params
            )
            if child_residual:
                raise UnsupportedQueryError(
                    "EXISTS residual predicates are not supported by the "
                    "data access layer"
                )
            stats.strategy = "exists(nested probe)"
            dli = Dli(self.database, stats.dli)
            rows = exists_strategy(
                dli, root_ssa, child_ssa, lambda root, child: root.values
            )
            schema = RelSchema.for_table(alias, self.view_columns(self.root_name))
            return rows, schema, residual
        if exists_parts:
            raise UnsupportedQueryError(
                "at most one EXISTS conjunct is supported"
            )

        stats.strategy = "root scan"
        dli = Dli(self.database, stats.dli)
        rows = root_scan_strategy(dli, root_ssa)
        schema = RelSchema.for_table(alias, self.view_columns(self.root_name))
        return rows, schema, residual

    def _join_block(
        self,
        query: SelectQuery,
        root_alias: str,
        child_alias: str,
        child_segment: str,
        where: Expr | None,
        params: dict[str, SqlValue],
        stats: GatewayStats,
    ):
        parts = conjuncts(where)
        join_found = False
        root_parts: list[Expr] = []
        child_parts: list[Expr] = []
        residual: list[Expr] = []
        for part in parts:
            if self._is_parent_child_join(part, root_alias, child_alias):
                join_found = True
                continue
            refs = {
                node.qualifier
                for node in part.walk()
                if isinstance(node, ColumnRef)
            }
            if refs <= {root_alias}:
                root_parts.append(part)
            elif refs <= {child_alias}:
                child_parts.append(part)
            else:
                residual.append(part)
        if not join_found:
            raise UnsupportedQueryError(
                "the join must equate the root key with the child's "
                "virtual parent-key column"
            )

        root_ssa, root_residual = self._pick_ssa(
            self.root_name, root_alias, root_parts, params
        )
        child_ssa, child_residual = self._pick_ssa(
            child_segment, child_alias, child_parts, params
        )
        stats.strategy = "parent/child join (nested loops)"
        dli = Dli(self.database, stats.dli)

        def emit(root: Segment, child: Segment | None) -> tuple:
            assert child is not None
            return root.values + (root.key,) + child.values

        rows = join_strategy(dli, root_ssa, child_ssa, emit)
        schema = RelSchema.for_table(
            root_alias, self.view_columns(self.root_name)
        ).concat(RelSchema.for_table(child_alias, self.view_columns(child_segment)))
        return rows, schema, root_residual + child_residual + residual

    def _child_scan_block(
        self,
        query: SelectQuery,
        alias: str,
        segment: str,
        where: Expr | None,
        params: dict[str, SqlValue],
        stats: GatewayStats,
    ):
        child_ssa, residual = self._pick_ssa(
            segment, alias, conjuncts(where), params
        )
        stats.strategy = "child scan (full hierarchy sweep)"
        dli = Dli(self.database, stats.dli)
        root_ssa = SSA(self.root_name)

        def emit(root: Segment, child: Segment | None) -> tuple:
            assert child is not None
            return (root.key,) + child.values

        rows = join_strategy(dli, root_ssa, child_ssa, emit)
        schema = RelSchema.for_table(alias, self.view_columns(segment))
        return rows, schema, residual

    # ------------------------------------------------------------------
    # helpers

    def _is_parent_child_join(
        self, part: Expr, root_alias: str, child_alias: str
    ) -> bool:
        if not isinstance(part, Comparison) or part.op != "=":
            return False
        refs = [part.left, part.right]
        if not all(isinstance(ref, ColumnRef) for ref in refs):
            return False
        qualifiers = {ref.qualifier for ref in refs}  # type: ignore[union-attr]
        if qualifiers != {root_alias, child_alias}:
            return False
        return all(ref.column == self.root_key for ref in refs)  # type: ignore[union-attr]

    def _pick_ssa(
        self,
        segment: str,
        alias: str,
        parts: list[Expr],
        params: dict[str, SqlValue],
    ) -> tuple[SSA, list[Expr]]:
        """Choose one conjunct as the SSA qualification; rest is residual."""
        residual: list[Expr] = []
        chosen: SSA | None = None
        for part in parts:
            if chosen is None:
                ssa = self._conjunct_to_ssa(segment, alias, part, params)
                if ssa is not None:
                    chosen = ssa
                    continue
            residual.append(part)
        return chosen or SSA(segment), residual

    def _conjunct_to_ssa(
        self,
        segment: str,
        alias: str,
        part: Expr,
        params: dict[str, SqlValue],
    ) -> SSA | None:
        if not isinstance(part, Comparison):
            return None
        left, right = part.left, part.right
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            part = part.flipped()
            left, right = part.left, part.right
        if not isinstance(left, ColumnRef) or left.qualifier != alias:
            return None
        value = self._constant_value(right, params)
        if value is _NOT_CONSTANT:
            return None
        segment_type = self.database.hierarchy.segment_type(segment)
        field_name = left.column
        if field_name == self.root_key and segment != self.root_name:
            return None  # virtual column: not a physical child field
        if field_name not in segment_type.fields:
            return None
        return SSA(segment, field_name, part.op, value)

    def _constant_value(self, expr: Expr, params: dict[str, SqlValue]):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, HostVar):
            if expr.name not in params:
                raise MissingHostVariableError(expr.name)
            return params[expr.name]
        return _NOT_CONSTANT

    def _exists_child_ssa(
        self,
        exists: Exists,
        root_alias: str,
        params: dict[str, SqlValue],
    ) -> tuple[SSA, str, list[Expr]]:
        inner = exists.query
        if not isinstance(inner, SelectQuery) or len(inner.tables) != 1:
            raise UnsupportedQueryError(
                "EXISTS must contain a single child-table block"
            )
        child_ref = inner.tables[0]
        child_segment = child_ref.name.upper()
        if child_segment not in self._child_names:
            raise UnsupportedQueryError(
                f"EXISTS table {child_ref.name} is not a child segment"
            )
        child_alias = child_ref.effective_name
        inner_columns = {child_alias: self.view_columns(child_segment)}
        inner_where = (
            qualify(inner.where, inner_columns, allow_correlated=True)
            if inner.where is not None
            else None
        )
        correlation_found = False
        child_parts: list[Expr] = []
        for part in conjuncts(inner_where):
            if self._is_parent_child_join(part, root_alias, child_alias):
                correlation_found = True
                continue
            child_parts.append(part)
        if not correlation_found:
            raise UnsupportedQueryError(
                "EXISTS must correlate on the virtual parent-key column"
            )
        ssa, residual = self._pick_ssa(
            child_segment, child_alias, child_parts, params
        )
        return ssa, child_alias, residual

    # ------------------------------------------------------------------
    # post-processing layer

    def _post_process(
        self,
        query: SelectQuery,
        rows: list[tuple],
        schema: RelSchema,
        residual: list[Expr],
        params: dict[str, SqlValue],
        stats: GatewayStats,
    ) -> Result:
        if residual:
            stats.used_post_processing = True
            evaluator = Evaluator(params=params)
            predicate = conjoin(residual)
            kept = []
            for row in rows:
                stats.post_filter_evals += 1
                if evaluator.predicate(
                    predicate, Scope(schema, row)
                ).false_interpreted():
                    kept.append(row)
            rows = kept

        names, indices = resolve_projection(query.select_list, schema)
        projected = [tuple(row[i] for i in indices) for row in rows]

        if query.distinct:
            stats.used_post_processing = True
            stats.post_rows_sorted += len(projected)
            projected.sort(key=row_sort_key)
            deduped: list[tuple] = []
            previous = None
            for row in projected:
                key = row_sort_key(row)
                if key != previous:
                    deduped.append(row)
                    previous = key
            projected = deduped

        if query.order_by:
            # Ordering is pure post-processing-layer work (a sort).
            stats.used_post_processing = True
            stats.post_rows_sorted += len(projected)
            key_specs: list[tuple[int, bool]] = []
            for item in query.order_by:
                expr = item.expr
                if not isinstance(expr, ColumnRef) or expr.column not in names:
                    raise UnsupportedQueryError(
                        "ORDER BY must name projected output columns"
                    )
                key_specs.append((names.index(expr.column), item.ascending))
            for position, ascending in reversed(key_specs):
                projected.sort(
                    key=lambda row: sort_key(row[position]),
                    reverse=not ascending,
                )
        return Result(names, projected)


_NOT_CONSTANT = object()
