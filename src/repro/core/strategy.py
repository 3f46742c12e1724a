"""Cost-based strategy selection over the rewrite space.

The rewrites in :mod:`repro.core.rewrite` *expand* the strategy space;
the paper leaves picking a winner to "the optimizer['s] ... cost model"
(§5).  :class:`StrategySelector` closes that loop for the relational
engine: it collects the original query plus every intermediate form the
rewrite pipeline produces, plans each with the physical planner, prices
the plans with :class:`~repro.engine.cost.CostModel`, and returns the
cheapest.

Example::

    selector = StrategySelector(database)
    choice = selector.choose(sql)
    result = execute_planned(choice.query, database)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache import MISSING, LRUCache, safe_fingerprint
from ..engine.cost import CostModel, PlanEstimate
from ..engine.database import Database
from ..engine.planner import Planner, PlannerOptions
from ..sql.ast import Query
from ..sql.parser import parse_query
from ..sql.printer import to_sql
from .rewrite import Optimizer
from .uniqueness import UniquenessOptions


@dataclass
class StrategyCandidate:
    """One query form under consideration."""

    label: str
    query: Query
    estimate: PlanEstimate

    def describe(self) -> str:
        """One line: label, estimate, SQL."""
        return f"[{self.label}] {self.estimate}: {to_sql(self.query)}"


@dataclass
class StrategyChoice:
    """The selector's verdict plus the full scored candidate list."""

    query: Query
    estimate: PlanEstimate
    candidates: list[StrategyCandidate] = field(default_factory=list)

    @property
    def sql(self) -> str:
        """The chosen query as SQL text."""
        return to_sql(self.query)

    def explain(self) -> str:
        """All candidates with their estimates, cheapest marked."""
        lines = []
        for candidate in self.candidates:
            marker = "->" if candidate.query is self.query else "  "
            lines.append(f"{marker} {candidate.describe()}")
        return "\n".join(lines)


#: Strategy verdicts keyed (database fingerprint, query text, options).
#: The fingerprint covers both DDL and data mutation — cost estimates
#: depend on live cardinalities, so data changes must re-select.
_strategy_cache = LRUCache("strategy", maxsize=256)


class StrategySelector:
    """Scores rewrite variants and picks the cheapest plan."""

    def __init__(
        self,
        database: Database,
        options: UniquenessOptions | None = None,
        planner_options: PlannerOptions | None = None,
    ) -> None:
        self.database = database
        self.optimizer = Optimizer.for_relational(database.catalog, options)
        self.planner = Planner(
            database.catalog, planner_options, database=database
        )
        self.cost_model = CostModel(database)
        self._options_key = (options, planner_options)

    def choose(self, query: Query | str) -> StrategyChoice:
        """Pick the cheapest among the original and every rewrite stage.

        Candidates are the original query and the query *after* each
        applied rewrite step — so a partially-rewritten form can win
        when the cost model says the final form overshoots.  Verdicts
        are cached on the database fingerprint; cached
        :class:`StrategyChoice` objects are shared, treat them as
        read-only.
        """
        if isinstance(query, str):
            query = parse_query(query)
        cache_key = None
        fingerprint = safe_fingerprint(self.database)
        if fingerprint is not None:
            cache_key = (fingerprint, to_sql(query), self._options_key)
            cached = _strategy_cache.get(cache_key)
            if cached is not MISSING:
                return cached
        outcome = self.optimizer.optimize(query)

        forms: list[tuple[str, Query]] = [("original", query)]
        for step in outcome.steps:
            forms.append((step.rule, step.after))

        candidates: list[StrategyCandidate] = []
        seen_sql: set[str] = set()
        for label, form in forms:
            sql = to_sql(form)
            if sql in seen_sql:
                continue
            seen_sql.add(sql)
            plan = self.planner.plan(form)
            estimate = self.cost_model.estimate(plan)
            candidates.append(StrategyCandidate(label, form, estimate))

        best = min(candidates, key=lambda candidate: candidate.estimate.cost)
        choice = StrategyChoice(
            query=best.query, estimate=best.estimate, candidates=candidates
        )
        if cache_key is not None:
            _strategy_cache.put(cache_key, choice)
        return choice
