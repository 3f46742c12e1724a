"""The rewrite optimizer: applies rules to a fixpoint with a trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ...catalog.schema import Catalog
from ...observe.audit import VERDICT, AuditTrail
from ...observe.trace import NULL_SPAN, TRACER
from ...sql.ast import Query, SelectQuery, SetOperation
from ...sql.parser import parse_query
from ...sql.printer import to_sql
from ..uniqueness import UniquenessOptions, test_uniqueness
from .base import RewriteContext, RewriteStep, Rule
from .distinct_elimination import DistinctElimination
from .join_elimination import JoinElimination
from .join_to_subquery import JoinToSubquery
from .setop_to_exists import ExceptToNotExists, IntersectToExists
from .subquery_to_join import InToExists, SubqueryToJoin

#: Rules safe mode has caught changing a result, by name → reason.
#: Every optimizer in the process skips a quarantined rule until
#: :func:`unquarantine_all` lifts the quarantine (or the process ends).
_quarantined: dict[str, str] = {}


def quarantine_rule(name: str, reason: str = "") -> None:
    """Disable the rewrite rule called *name* process-wide.

    Safe mode calls this when a cross-check shows the rule changed a
    query's result multiset (e.g. an unsound uniqueness verdict let
    DISTINCT elimination drop a needed duplicate-removal step)."""
    _quarantined[name] = reason


def quarantined_rules() -> dict[str, str]:
    """Currently quarantined rule names mapped to their reasons."""
    return dict(_quarantined)


def unquarantine_all() -> None:
    """Lift every quarantine (tests and operator intervention)."""
    _quarantined.clear()


@dataclass
class OptimizeResult:
    """The rewritten query plus the trace of applied steps."""

    query: Query
    steps: list[RewriteStep] = field(default_factory=list)
    audit: AuditTrail = field(default_factory=AuditTrail)
    _printed: tuple[Query, str] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def sql(self) -> str:
        """The rewritten query as SQL text.

        Printed on first use and kept beside the AST it was printed
        from, so the plan-cache key and the served ``sql`` of one request
        share one rendering.
        """
        printed = self._printed
        if printed is None or printed[0] is not self.query:
            printed = self._printed = (self.query, to_sql(self.query))
        return printed[1]

    def copy(self) -> "OptimizeResult":
        """The same outcome, printed once for both, with its own copy of
        the audit trail: the copy's reader builds its own records."""
        return OptimizeResult(
            self.query, self.steps, self.audit.copy(), (self.query, self.sql)
        )

    @property
    def changed(self) -> bool:
        """Whether any rule fired."""
        return bool(self.steps)

    def explain(self) -> str:
        """Human-readable trace of every applied step."""
        if not self.steps:
            return "(no rewrites applied)"
        return "\n".join(step.describe() for step in self.steps)

    def proof_sketch(self) -> str:
        """The audit trail's theorem decisions — fired and rejected,
        each with its witness — as a numbered proof sketch."""
        return self.audit.proof_sketch()


class Optimizer:
    """Applies a pipeline of semantic rewrite rules to a fixpoint.

    Rules are applied top-down over the query expression tree: set
    operations first optimize their operands, then rules see the
    combined node (so an INTERSECT whose operand just lost a redundant
    DISTINCT can still convert to EXISTS).  Each applied step is
    recorded; ``max_passes`` bounds the fixpoint loop.
    """

    def __init__(
        self,
        catalog: Catalog,
        rules: list[Rule] | None = None,
        options: UniquenessOptions | None = None,
        max_passes: int = 10,
    ) -> None:
        self.ctx = RewriteContext(catalog, options)
        self.rules = rules if rules is not None else relational_rules()
        self.max_passes = max_passes

    @classmethod
    def for_relational(
        cls,
        catalog: Catalog,
        options: UniquenessOptions | None = None,
        max_passes: int = 10,
    ) -> "Optimizer":
        """Profile for set-oriented engines: flatten subqueries to joins,
        convert set operations, drop redundant DISTINCTs."""
        return cls(catalog, relational_rules(), options, max_passes)

    @classmethod
    def for_navigational(
        cls,
        catalog: Catalog,
        options: UniquenessOptions | None = None,
        max_passes: int = 10,
    ) -> "Optimizer":
        """Profile for pointer-based systems (IMS, object stores):
        prefer nested-loops shapes, so convert joins to subqueries."""
        return cls(catalog, navigational_rules(), options, max_passes)

    # ------------------------------------------------------------------

    def optimize(self, query: Query | str) -> OptimizeResult:
        """Rewrite *query* to a fixpoint; returns query + trace.

        Every run collects an audit trail: each rule records its
        theorem decision (fired or rejected, with the witness) via the
        shared context, and queries no rule needed to touch still get a
        standalone Algorithm 1 verdict — so every optimized query has a
        documented uniqueness decision.  The trail is filed on read: the
        standalone verdict, like every printed target and witness, is
        computed the first time someone reads the trail.
        """
        if isinstance(query, str):
            query = parse_query(query)
        result = OptimizeResult(query)
        self.ctx.audit = result.audit
        span_cm = (
            TRACER.span("rewrite.optimize", sql=result.sql)
            if TRACER.enabled
            else NULL_SPAN
        )
        try:
            with span_cm as span:
                for _ in range(self.max_passes):
                    rewritten = self._pass(result.query, result.steps)
                    if rewritten is None:
                        break
                    result.query = rewritten
                self._record_fallback_verdict(result)
                if span:
                    span.attributes["rules"] = (
                        ", ".join(
                            dict.fromkeys(step.rule for step in result.steps)
                        )
                        or "(none)"
                    )
        finally:
            self.ctx.audit = None
        return result

    def _record_fallback_verdict(self, result: OptimizeResult) -> None:
        """Ensure the trail is never empty: when no rule recorded a
        decision, file Algorithm 1's verdict on the final form, to be
        run when the trail is read (set operations get a structural note
        instead)."""
        if result.audit:
            return
        query = result.query
        if isinstance(query, SelectQuery):
            catalog = self.ctx.catalog
            result.audit.defer(
                partial(
                    _fallback_verdict,
                    query,
                    catalog,
                    self.ctx.options,
                    catalog.fingerprint(),
                )
            )
        else:
            result.audit.record(
                "optimizer",
                "Algorithm 1",
                VERDICT,
                query,
                "set operation left as written; no operand examined by "
                "any rule",
            )

    def _pass(self, query: Query, steps: list[RewriteStep]) -> Query | None:
        """One optimization pass; returns the new query or None."""
        changed = False

        if isinstance(query, SetOperation):
            left = self._pass(query.left, steps)
            right = self._pass(query.right, steps)
            if left is not None or right is not None:
                query = SetOperation(
                    query.kind,
                    query.all,
                    left if left is not None else query.left,
                    right if right is not None else query.right,
                )
                changed = True

        for rule in self.rules:
            if rule.name in _quarantined:
                continue
            outcome = rule.apply(query, self.ctx)
            if outcome is None:
                continue
            rewritten, note = outcome
            steps.append(
                RewriteStep(rule=rule.name, before=query, after=rewritten, note=note)
            )
            query = rewritten
            changed = True

        return query if changed else None


def _fallback_verdict(
    query: SelectQuery,
    catalog: Catalog,
    options: UniquenessOptions,
    fingerprint: tuple,
) -> tuple:
    """The standalone Algorithm 1 record of a query no rule touched.

    Runs when the trail is first read, against the catalog version the
    optimizer saw (*fingerprint*).  After DDL moved the catalog on, the
    verdict is not computed at all — evidence drawn from a schema the
    decision never saw would be no evidence for it.
    """
    text = to_sql(query)
    if catalog.fingerprint() != fingerprint:
        return (
            "optimizer",
            "Algorithm 1",
            VERDICT,
            text,
            "verdict not computed: the catalog changed (DDL) between "
            "optimization and this reading of the trail",
            None,
        )
    verdict = test_uniqueness(query, catalog, options, text=text)
    note = (
        "projection is provably duplicate-free as written"
        if verdict.unique
        else f"projection may contain duplicates ({verdict.reason})"
    )
    return ("optimizer", "Algorithm 1", VERDICT, text, note, verdict.witness())


def relational_rules() -> list[Rule]:
    """Default rule pipeline for relational execution.

    Order matters: IN normalizes to EXISTS, set operations convert to
    EXISTS, EXISTS flattens to joins, and DISTINCT elimination runs last
    so it also sees DISTINCTs introduced by Corollary 1 flattening.
    """
    return [
        InToExists(),
        IntersectToExists(),
        ExceptToNotExists(),
        SubqueryToJoin(),
        JoinElimination(),
        DistinctElimination(),
    ]


def navigational_rules() -> list[Rule]:
    """Rule pipeline for navigational backends (IMS / object stores).

    Joins fold into EXISTS probes; subquery flattening is excluded (it
    would undo the fold and loop)."""
    return [
        InToExists(),
        IntersectToExists(),
        ExceptToNotExists(),
        DistinctElimination(),
        JoinElimination(),
        JoinToSubquery(),
    ]


def optimize(
    query: Query | str,
    catalog: Catalog,
    options: UniquenessOptions | None = None,
) -> OptimizeResult:
    """One-shot relational optimization."""
    return Optimizer.for_relational(catalog, options).optimize(query)
