"""Guarded, verified query execution — the resilience entry point.

:func:`run_guarded` is the hardened counterpart of "optimize then
``execute_planned``": it applies the rewrite optimizer, executes the
winning form under a per-query :class:`~repro.resilience.budgets.ResourceBudget`,
and — in *safe mode* — cross-checks uniqueness-based rewrites against
the unrewritten plan on sampled executions.

Safe-mode semantics: when the rewritten and reference executions
disagree on the result multiset (≐ row identity, the engine's own
comparison), the implicated rewrite rules are **quarantined**
process-wide (see :func:`repro.core.rewrite.engine.quarantine_rule`),
every cache entry keyed on the involved query texts is **evicted** (a
poisoned Algorithm 1 verdict, plan, or strategy choice cannot be served
again), and the *reference* result — the verified answer — is returned.
With ``strict=True`` the mismatch raises
:class:`~repro.errors.RewriteMismatchError` instead.

The cross-check is sound because the physical planner never consults the
uniqueness analysis: an unsound verdict can only enter through the
rewrite layer, which the reference execution bypasses entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cache import evict_by_text
from ..core.rewrite.engine import Optimizer, quarantine_rule
from ..engine.database import Database
from ..engine.plan_cache import PlanCache
from ..engine.planner import PlannerOptions, execute_planned
from ..engine.result import Result
from ..engine.stats import Stats
from ..errors import RewriteMismatchError
from ..observe.audit import AuditTrail
from ..observe.trace import NULL_SPAN, TRACER
from ..sql.ast import Query
from ..sql.parser import parse_query
from ..sql.printer import to_sql
from ..types.values import SqlValue
from .budgets import ExecutionGuard, ResourceBudget

#: Per-query-text execution counters driving safe-mode sampling.
_sample_counters: dict[str, int] = {}


def reset_safe_mode_sampling() -> None:
    """Forget the sampling counters (tests and fresh sessions)."""
    _sample_counters.clear()


def _take_sample(text: str, every: int) -> bool:
    """Deterministic sampling: the first execution of a text is always
    checked, then every *every*-th one after it.  Checking every
    execution needs no count, so it keeps none."""
    if every <= 1:
        return True
    count = _sample_counters.get(text, 0)
    _sample_counters[text] = count + 1
    return count % every == 0


@dataclass
class GuardedOutcome:
    """Everything one guarded execution produced.

    Attributes:
        result: the rows handed to the caller.  After a safe-mode
            mismatch this is the *reference* (unrewritten) result — the
            verified answer — not the rewritten one.
        sql: the SQL text the returned result came from.
        query: the parsed query *sql* was printed from (None for DML and
            transaction-control outcomes, which execute no query).
        rewritten: whether any rewrite rule fired.
        rules: names of the rules that fired, in application order.
        stats: execution counters for the primary (rewritten) execution.
        verified: whether the safe-mode cross-check ran.
        mismatch: whether the cross-check caught a result change.
        quarantined: rule names quarantined by this execution.
        evicted: cache entries evicted after a mismatch.
        audit: the optimizer's audit trail — every theorem decision
            (fired or rejected, with witness) behind the rewrite.
        analysis: the :class:`~repro.observe.analyze.AnalyzedExecution`
            (per-operator actuals of the execution that produced
            *result*) when ``analyze`` was requested (see
            :func:`repro.api.run_with_options`), else None.
        rowcount: rows affected by a DML statement, or -1 for reads
            (DB-API convention; the facade reports ``len(result)`` for
            reads instead).
    """

    result: Result
    sql: str
    rewritten: bool
    rules: list[str]
    stats: Stats
    verified: bool = False
    mismatch: bool = False
    quarantined: list[str] = field(default_factory=list)
    evicted: int = 0
    audit: AuditTrail = field(default_factory=AuditTrail)
    analysis: object | None = None
    rowcount: int = -1
    query: Query | None = None

    def describe(self) -> str:
        """One line: rewrite trail, verification status, row count."""
        parts = []
        parts.append(
            "rewritten via " + ", ".join(self.rules) if self.rules
            else "not rewritten"
        )
        if self.mismatch:
            parts.append(
                f"MISMATCH: quarantined {', '.join(self.quarantined)}; "
                f"served the reference result"
            )
        elif self.verified:
            parts.append("verified against the unrewritten plan")
        parts.append(f"{len(self.result)} rows")
        return "; ".join(parts)


def run_guarded(
    query: Query | str,
    database: Database,
    params: dict[str, SqlValue] | None = None,
    budget: ResourceBudget | None = None,
    *,
    optimizer: Optimizer | None = None,
    safe_mode: bool = False,
    sample_every: int = 1,
    strict: bool = False,
    stats: Stats | None = None,
    planner_options: PlannerOptions | None = None,
    plan_cache: PlanCache | None = None,
    use_indexes: bool = True,
    engine_mode: str | None = None,
    batch_rows: int | None = None,
    on_guard: Callable[[ExecutionGuard], None] | None = None,
    original_text: str | None = None,
    analysis=None,
) -> GuardedOutcome:
    """Optimize and execute *query* under *budget*, optionally verified.

    Args:
        query: SQL text or a parsed query expression.
        database: the database to execute against.
        params: host-variable bindings.
        budget: per-query limits; a fresh guard is started per execution
            (the safe-mode reference gets its own, so the cross-check is
            granted the same allowance as the primary run).
        optimizer: rewrite pipeline; defaults to the relational profile.
        safe_mode: cross-check rewritten results against the unrewritten
            plan on sampled executions.
        sample_every: check the first execution of each query text, then
            every n-th after it (1 = every execution).
        strict: raise :class:`~repro.errors.RewriteMismatchError` on a
            mismatch instead of degrading to the reference result.
        stats: counter sink for the primary execution.
        planner_options / plan_cache / use_indexes: forwarded to
            :func:`~repro.engine.planner.execute_planned`.
        engine_mode / batch_rows: format of the primary run's scan →
            filter → project pipelines (see
            :func:`~repro.engine.planner.execute_plan`).  The safe-mode
            reference is pinned to tuple mode on purpose: the verified
            answer comes from the row-at-a-time selection.  The pair is
            diverse in its selections and projections only — joins,
            DISTINCT and set operations are the same code in every
            mode; what differs between the two runs is the rewrite.
        on_guard: called with the primary execution's
            :class:`~repro.resilience.budgets.ExecutionGuard` before the
            first operator runs, so an external owner (a service ticket
            whose client abandoned the wait) can cooperatively cancel
            mid-flight.  When no budget was given, an unlimited guard is
            created just so there is a cancellation point to hand out.
        original_text: the caller's own SQL text when *query* arrives
            already parsed — the safe-mode sampling key, the eviction
            text after a mismatch and the span attribute stay the bytes
            the caller wrote.  Omitted, a parsed *query* is printed.
        analysis: a :class:`~repro.observe.analyze.PlanAnalysis` the
            primary execution accounts its per-operator actuals into —
            the same run, under the same guard, that produces the
            served rows.  The safe-mode reference run is not analyzed.

    Budget violations always propagate as
    :class:`~repro.errors.ResourceError` subclasses — no fallback ladder
    may swallow them.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    stats = stats if stats is not None else Stats()
    if isinstance(query, str):
        original_text = query
        parsed = parse_query(query)
    else:
        parsed = query
        if original_text is None:
            original_text = to_sql(query)
    if optimizer is None:
        optimizer = Optimizer.for_relational(database.catalog)
    traced = TRACER.enabled  # one test when tracing is off
    guarded_cm = (
        TRACER.span(
            "guarded.run", stats=stats, sql=original_text, safe_mode=safe_mode
        )
        if traced
        else NULL_SPAN
    )
    with guarded_cm as guarded_span:
        outcome = optimizer.optimize(parsed)

        guard = budget.guard() if budget is not None else None
        if on_guard is not None:
            if guard is None:
                guard = ExecutionGuard()
            on_guard(guard)
        result = execute_planned(
            outcome.query,
            database,
            params=params,
            stats=stats,
            options=planner_options,
            use_indexes=use_indexes,
            plan_cache=plan_cache,
            guard=guard,
            engine_mode=engine_mode,
            batch_rows=batch_rows,
            sql_text=outcome.sql,
            analysis=analysis,
        )
        if guarded_span is not None and guard is not None:
            guarded_span.attributes["guard_rows"] = guard.rows_processed
        rules: list[str] = []
        for step in outcome.steps:
            if step.rule not in rules:
                rules.append(step.rule)
        out = GuardedOutcome(
            result=result,
            sql=outcome.sql,
            rewritten=outcome.changed,
            rules=rules,
            stats=stats,
            audit=outcome.audit,
            query=outcome.query,
        )

        if not (safe_mode and outcome.changed):
            return out
        if not _take_sample(original_text, sample_every):
            return out

        out.verified = True
        cross_cm = (
            TRACER.span("guarded.cross_check", sql=original_text)
            if traced
            else NULL_SPAN
        )
        with cross_cm:
            reference = execute_planned(
                parsed,
                database,
                params=params,
                stats=Stats(),
                options=planner_options,
                use_indexes=use_indexes,
                plan_cache=plan_cache,
                guard=budget.guard() if budget is not None else None,
                engine_mode="tuple",
            )
        if reference.same_rows(result):
            return out

        # The rewrite changed the result multiset.  Quarantine the rules,
        # purge every cache entry keyed on an involved query text (the
        # poisoned verdict/plan/strategy entries all key on text), and
        # serve the verified reference result.
        texts = {original_text, out.sql}
        for step in outcome.steps:
            texts.add(to_sql(step.before))
            texts.add(to_sql(step.after))
        for text in texts:
            out.evicted += evict_by_text(text)
        for rule in rules:
            quarantine_rule(rule, f"safe-mode mismatch on {original_text!r}")
        out.mismatch = True
        out.quarantined = list(rules)
        if guarded_span is not None:
            guarded_span.attributes["mismatch"] = True
        out.result = reference
        out.sql = original_text
        out.query = parsed
        if strict:
            raise RewriteMismatchError(rules, original_text)
        return out
