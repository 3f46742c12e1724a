"""Statistics-driven cardinality estimation under the key machinery.

:class:`StatisticsCostModel` extends the heuristic
:class:`~repro.engine.cost.CostModel` with three layers, consulted in
order of confidence:

1. **Key bounds (exact).**  The paper's uniqueness machinery gives a
   bound no generic estimator has: when the join keys of one input
   cover a candidate key of that input's base table, every row of the
   other input matches at most one row — the join output is *bounded
   exactly* by the other input's cardinality (the intermediate-
   relation-size bound of the SPJU paper in PAPERS.md).  Likewise an
   index probe on a full candidate key returns at most one row.
2. **Collected statistics.**  Row counts, NULL fractions, distinct
   counts, and equi-depth histograms from the ANALYZE pass
   (:mod:`repro.stats.collect`) replace the fixed 0.1/0.3/0.5
   selectivity constants, and equi-joins divide by the larger join-key
   distinct count instead of ``max(|L|, |R|)``.
3. **Adaptive corrections.**  Observed cardinalities folded back by
   :mod:`repro.stats.adaptive` override both layers for plan shapes
   that have actually been executed — the estimator believes what it
   has seen over what it has modeled.

Every layer is fail-soft: any estimation error falls back to the
heuristic model for that subtree, per query (``estimator_fallbacks``
counts these).
"""

from __future__ import annotations

from typing import Any

from ..engine.cost import (
    DISTINCT_RETENTION,
    CostModel,
    PlanEstimate,
    _equi_join_rows,
    _sort_cost,
)
from ..engine.operators import (
    Filter,
    HashJoin,
    IndexScan,
    PlanNode,
    Project,
    SeqScan,
    SortDistinct,
)
from ..sql.expressions import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
)
from .adaptive import (
    CorrectionStore,
    plan_fingerprint,
    plan_tables,
    scoped_db_fingerprint,
)
from .collect import ColumnStats, StatisticsCatalog


class StatisticsCostModel(CostModel):
    """Cost model over collected statistics, key bounds, and corrections."""

    def __init__(
        self,
        database: Any,
        catalog: StatisticsCatalog,
        corrections: CorrectionStore | None = None,
        stats: Any | None = None,
    ) -> None:
        super().__init__(database)
        self.catalog = catalog
        self.corrections = corrections
        self.stats = stats
        self._aliases: dict[str, str] = {}
        self._in_estimate = False

    # ------------------------------------------------------------------

    def estimate(self, plan: PlanNode) -> PlanEstimate:
        """Recursively estimate *plan*; never raises.

        The top-level call maps correlation names to base tables for
        the whole tree and counts one ``stats_estimates``; recursive
        calls reuse both.  Estimation errors at any node fall back to
        the heuristic model for that subtree and count one
        ``estimator_fallbacks``.
        """
        top_level = not self._in_estimate
        if top_level:
            self._in_estimate = True
            self._aliases = _alias_tables(plan)
            if self.stats is not None:
                self.stats.stats_estimates += 1
        try:
            try:
                estimate = self._dispatch(plan)
            except Exception:
                if self.stats is not None:
                    self.stats.estimator_fallbacks += 1
                estimate = CostModel.estimate(self, plan)
            return self._corrected(plan, estimate)
        finally:
            if top_level:
                self._in_estimate = False

    def _dispatch(self, plan: PlanNode) -> PlanEstimate:
        if isinstance(plan, SeqScan):
            rows = float(self._table_rows(plan.table_name))
            return PlanEstimate(rows, rows)
        if isinstance(plan, IndexScan):
            return self._index_scan(plan)
        if isinstance(plan, HashJoin):
            return self._equi_join(plan)
        if isinstance(plan, SortDistinct):
            return self._distinct(plan)
        # Filter/Project/Sort/NestedLoop/set ops: the base
        # recipe already routes selectivities through our overridden
        # ``_atom_selectivity``, so the heuristic structure is reused
        # with statistics-backed numbers.
        return super().estimate(plan)

    # -- scans ----------------------------------------------------------

    def _table_rows(self, table_name: str) -> int:
        table = self.catalog.table(table_name)
        if table is not None:
            return table.row_count
        return len(self.database.table(table_name))

    def _index_scan(self, plan: IndexScan) -> PlanEstimate:
        schema = self.database.catalog.table(plan.table_name)
        if schema.covered_key(plan.key_columns) is not None:
            rows = 1.0  # a full candidate-key probe returns at most one row
        else:
            rows = float(self._table_rows(plan.table_name))
            for column, expr in zip(plan.key_columns, plan.key_exprs):
                stats = self.catalog.column(plan.table_name, column)
                if stats is None:
                    rows *= 0.1
                elif isinstance(expr, Literal):
                    rows *= stats.eq_selectivity(expr.value)
                elif stats.n_distinct:
                    rows *= stats.non_null_fraction / stats.n_distinct
                else:
                    rows *= 0.0
            rows = max(rows, 0.0)
        if plan.residual is not None:
            rows *= self.predicate_selectivity(plan.residual)
        return PlanEstimate(rows, rows + 1.0)

    # -- joins ----------------------------------------------------------

    def _equi_join(self, plan: HashJoin) -> PlanEstimate:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        left_ndv = self._keys_ndv(plan.left, plan.left_keys)
        right_ndv = self._keys_ndv(plan.right, plan.right_keys)
        if left_ndv is None and right_ndv is None:
            rows = _equi_join_rows(left.rows, right.rows)
        else:
            denominator = max(left_ndv or 1.0, right_ndv or 1.0, 1.0)
            rows = left.rows * right.rows / denominator
        # Theorem 1's exact bound: join keys covering a candidate key
        # of one side cap the output at the other side's cardinality.
        if self._keys_cover_candidate_key(plan.right, plan.right_keys):
            rows = min(rows, left.rows)
        if self._keys_cover_candidate_key(plan.left, plan.left_keys):
            rows = min(rows, right.rows)
        cost = self.hash_join_cost(plan, left, right)
        if plan.residual is not None:
            rows *= self.predicate_selectivity(plan.residual)
        return PlanEstimate(rows, cost + rows)

    def _keys_ndv(self, side: PlanNode, key_positions: list[int]) -> float | None:
        """Distinct combinations of the join-key columns, from statistics.

        The product of per-column distinct counts (capped at the base
        table's row count — a table cannot have more key combinations
        than rows), or None when any column lacks statistics.
        """
        ndv = 1.0
        cap = None
        for position in key_positions:
            info = side.schema.columns[position]
            stats = self._column_stats(info.qualifier, info.name)
            if stats is None or stats.n_distinct == 0:
                return None
            ndv *= stats.n_distinct
            cap = max(cap or 0, stats.row_count)
        if cap is not None:
            ndv = min(ndv, float(cap))
        return ndv

    def _keys_cover_candidate_key(
        self, side: PlanNode, key_positions: list[int]
    ) -> bool:
        """Whether *side*'s join keys cover a candidate key of its table.

        Only scan chains (Filter*/Project over one base-table scan)
        qualify — their rows inherit the base table's uniqueness, so a
        covered candidate key means at most one match per probe row.
        """
        base = _scan_chain_base(side)
        if base is None:
            return False
        key_names = {
            side.schema.columns[position].name
            for position in key_positions
            if side.schema.columns[position].qualifier == base.alias
        }
        if len(key_names) != len(key_positions):
            return False
        schema = self.database.catalog.table(base.table_name)
        return schema.covered_key(key_names) is not None

    # -- distinct -------------------------------------------------------

    def _distinct(self, plan: SortDistinct) -> PlanEstimate:
        child = self.estimate(plan.child)
        rows = None
        inner = plan.child
        if isinstance(inner, Project):
            source = inner.child.schema.columns
            ndv = 1.0
            for index in inner.indices:
                info = source[index]
                stats = self._column_stats(info.qualifier, info.name)
                if stats is None or stats.n_distinct == 0:
                    ndv = None
                    break
                ndv *= stats.n_distinct
            if ndv is not None:
                rows = min(child.rows, ndv)
        if rows is None:
            rows = child.rows * DISTINCT_RETENTION
        return PlanEstimate(rows, child.cost + _sort_cost(child.rows))

    # -- selectivities --------------------------------------------------

    def _atom_selectivity(self, atom: Expr) -> float:
        """Statistics-backed selectivity of one conjunct.

        Falls back to the heuristic constants whenever the referenced
        column has no collected statistics.
        """
        if isinstance(atom, Comparison):
            sides = ((atom.left, atom.right), (atom.right, atom.left))
            for ref, other in sides:
                if not isinstance(ref, ColumnRef):
                    continue
                if isinstance(other, ColumnRef):
                    return self._column_pair_selectivity(atom, ref, other)
                if isinstance(other, Literal):
                    stats = self._ref_stats(ref)
                    if stats is None:
                        break
                    if atom.op == "=":
                        return stats.eq_selectivity(other.value)
                    return stats.range_selectivity(atom.op, other.value)
                break
        elif isinstance(atom, IsNull):
            if isinstance(atom.operand, ColumnRef):
                stats = self._ref_stats(atom.operand)
                if stats is not None:
                    fraction = stats.null_selectivity()
                    return 1.0 - fraction if atom.negated else fraction
        elif isinstance(atom, Between):
            selectivity = self._between_selectivity(atom)
            if selectivity is not None:
                return selectivity
        elif isinstance(atom, InList):
            selectivity = self._in_list_selectivity(atom)
            if selectivity is not None:
                return selectivity
        return super()._atom_selectivity(atom)

    def _column_pair_selectivity(
        self, atom: Comparison, left: ColumnRef, right: ColumnRef
    ) -> float:
        if atom.op != "=":
            return super()._atom_selectivity(atom)
        left_stats = self._ref_stats(left)
        right_stats = self._ref_stats(right)
        if left_stats is None or right_stats is None:
            return super()._atom_selectivity(atom)
        denominator = max(left_stats.n_distinct, right_stats.n_distinct, 1)
        return 1.0 / denominator

    def _between_selectivity(self, atom: Between) -> float | None:
        if not isinstance(atom.operand, ColumnRef):
            return None
        if not isinstance(atom.low, Literal) or not isinstance(atom.high, Literal):
            return None
        stats = self._ref_stats(atom.operand)
        if stats is None:
            return None
        below_high = stats.range_selectivity("<=", atom.high.value)
        below_low = stats.range_selectivity("<", atom.low.value)
        inside = max(0.0, below_high - below_low)
        return max(0.0, stats.non_null_fraction - inside) if atom.negated else inside

    def _in_list_selectivity(self, atom: InList) -> float | None:
        if not isinstance(atom.operand, ColumnRef):
            return None
        if not all(isinstance(item, Literal) for item in atom.items):
            return None
        stats = self._ref_stats(atom.operand)
        if stats is None:
            return None
        inside = min(
            1.0, sum(stats.eq_selectivity(item.value) for item in atom.items)
        )
        return max(0.0, stats.non_null_fraction - inside) if atom.negated else inside

    # -- plumbing -------------------------------------------------------

    def _column_stats(
        self, qualifier: str | None, column: str
    ) -> ColumnStats | None:
        if qualifier is not None:
            table = self._aliases.get(qualifier)
            return self.catalog.column(table, column) if table else None
        owners = [
            table
            for table in set(self._aliases.values())
            if self.catalog.column(table, column) is not None
        ]
        if len(owners) != 1:
            return None
        return self.catalog.column(owners[0], column)

    def _ref_stats(self, ref: ColumnRef) -> ColumnStats | None:
        return self._column_stats(ref.qualifier, ref.column)

    def _corrected(self, plan: PlanNode, estimate: PlanEstimate) -> PlanEstimate:
        if self.corrections is None:
            return estimate
        # The key's database side is scoped to the tables this subtree
        # reads, matching what fold_analysis recorded — so corrections
        # survive commits to unrelated tables.
        db_fingerprint = scoped_db_fingerprint(self.database, plan_tables(plan))
        if db_fingerprint is None:
            return estimate
        observed = self.corrections.lookup(
            db_fingerprint, plan_fingerprint(plan)
        )
        if observed is None:
            return estimate
        cost = max(estimate.cost + observed - estimate.rows, observed)
        return PlanEstimate(observed, cost)


def _alias_tables(plan: PlanNode) -> dict[str, str]:
    """Correlation name → base table, from the plan's scan leaves."""
    aliases: dict[str, str] = {}
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (SeqScan, IndexScan)):
            aliases[node.alias] = node.table_name
        stack.extend(node.children())
    return aliases


def _scan_chain_base(node: PlanNode) -> SeqScan | IndexScan | None:
    """The base-table scan under a chain of row-preserving unary nodes."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    if isinstance(node, (SeqScan, IndexScan)):
        return node
    return None


def estimator_for(
    database: Any,
    options: Any = None,
    stats: Any | None = None,
) -> CostModel:
    """The cost model an execution should estimate with.

    Statistics-driven when the planner options ask for it
    (``use_stats``/``adaptive``) and the database carries *fresh*
    collected statistics; the heuristic model otherwise.  A stale or
    missing catalog counts one ``estimator_fallbacks``.
    """
    from .adaptive import GLOBAL_CORRECTIONS

    use_stats = bool(
        options is not None
        and (getattr(options, "use_stats", False) or getattr(options, "adaptive", False))
    )
    if not use_stats:
        return CostModel(database)
    catalog = getattr(database, "statistics", None)
    if catalog is None or not catalog.fresh_for(database):
        if stats is not None:
            stats.estimator_fallbacks += 1
        return CostModel(database)
    corrections = GLOBAL_CORRECTIONS if getattr(options, "adaptive", False) else None
    return StatisticsCostModel(
        database, catalog, corrections=corrections, stats=stats
    )
