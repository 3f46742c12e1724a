"""Algorithm 1: deciding when duplicate elimination is unnecessary.

This is the paper's practical test of a *sufficient* condition for
Theorem 1 (the exact condition is NP-complete to test; see
:mod:`repro.core.exact` for a bounded exact checker).  The steps follow
the paper's listing:

1.  Convert the selection predicate to CNF (line 5).
2.  Delete every clause containing an atom that is not a Type 1
    (``column = constant``) or Type 2 (``column = column``) equality
    (line 7), and every *disjunctive clause on v* — a multi-atom clause
    in which some column appears in more than one atom, like
    ``X = 5 OR X = 10`` (line 8).  Deleting clauses only weakens the
    condition, so the test stays sufficient.
3.  If nothing survives, the paper's listing answers NO (line 10); by
    default we instead fall through with an empty condition — the
    projection alone may still contain the keys — which is equally
    sound.  Set ``paper_strict=True`` for the verbatim behaviour.
4.  Convert the surviving clauses to DNF (line 11) and, for every
    disjunctive term, compute the transitive closure V of attributes
    bound from the projection list (lines 13–16).
5.  Answer YES iff, in every term, V contains a full candidate key of
    every FROM-clause table (line 17).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..cache import MISSING, LRUCache, safe_fingerprint
from ..catalog.schema import Catalog
from ..errors import UnsupportedQueryError
from ..observe.trace import TRACER
from ..resilience.faults import FAULTS, SITE_UNIQUENESS
from ..sql.ast import Query, SelectQuery, SetOperation, SetOpKind, TableRef
from ..sql.expressions import Expr
from ..sql.parser import parse_query
from ..sql.printer import to_sql
from ..analysis.attributes import Attribute, AttributeSet
from ..analysis.binding import projection_attributes, qualify_query_predicate
from ..analysis.closure import bound_closure
from ..analysis.conditions import Equality, atom_attributes, classify_atom
from ..analysis.normal_forms import NormalFormOverflow, to_cnf_clauses


@dataclass(frozen=True)
class UniquenessOptions:
    """Knobs for Algorithm 1.

    Attributes:
        paper_strict: answer NO when no equality condition survives the
            CNF filtering, exactly as the paper's listing does (line 10).
            The default instead checks the projection alone, which is
            still sufficient and detects strictly more queries.
        treat_is_null_as_binding: count an affirmative ``v IS NULL`` as a
            Type 1 binding (sound extension; see
            :func:`repro.analysis.conditions.classify_atom`).
        disjunction_handling: ``"paper"`` keeps multi-atom CNF clauses
            whose atoms mention pairwise-distinct columns (they survive
            to the DNF stage); ``"conservative"`` deletes every
            multi-atom clause (the Ceri–Widom variant the paper contrasts
            itself with).
        clause_budget: bound on CNF/DNF blowup; exceeding it returns a
            conservative NO.
        use_check_constraints: conjoin CHECK-constraint conditions over
            NOT NULL columns to the analyzed predicate (the paper's §8
            "transformations based on true-interpreted predicates").  A
            CHECK is satisfied when true *or unknown*, so only conjuncts
            whose columns cannot be NULL are definitely true for every
            stored row — those are safe to exploit, e.g. ``CHECK (REGION
            = 'EU')`` on a NOT NULL column binds REGION like a WHERE
            equality would.
    """

    paper_strict: bool = False
    treat_is_null_as_binding: bool = False
    disjunction_handling: str = "paper"
    clause_budget: int = 512
    use_check_constraints: bool = False

    def __post_init__(self) -> None:
        if self.disjunction_handling not in ("paper", "conservative"):
            raise ValueError(
                f"unknown disjunction handling {self.disjunction_handling!r}"
            )


@dataclass
class TermReport:
    """Analysis of one DNF term (one conjunctive component E_i)."""

    equalities: list[Equality]
    bound: AttributeSet
    missing_tables: list[str]

    @property
    def satisfied(self) -> bool:
        """Whether every table's key is bound in this term."""
        return not self.missing_tables


@dataclass
class UniquenessResult:
    """The outcome of Algorithm 1 for one query block.

    ``unique`` is True when the query result provably cannot contain
    duplicate rows, i.e. a ``DISTINCT`` on this block is unnecessary.
    """

    unique: bool
    reason: str
    projection: list[Attribute] = field(default_factory=list)
    kept_clauses: list[list[Expr]] = field(default_factory=list)
    dropped_clauses: list[tuple[list[Expr], str]] = field(default_factory=list)
    terms: list[TermReport] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.unique

    def explain(self) -> str:
        """A multi-line account of the decision, in the style of the
        paper's Example 5 trace."""
        lines = [f"decision: {'YES (DISTINCT unnecessary)' if self.unique else 'NO'}"]
        lines.append(f"reason: {self.reason}")
        if self.projection:
            lines.append(
                "projection A = {"
                + ", ".join(str(a) for a in self.projection)
                + "}"
            )
        for clause, why in self.dropped_clauses:
            from ..sql.printer import to_sql

            rendered = " OR ".join(to_sql(atom) for atom in clause)
            lines.append(f"dropped clause [{rendered}]: {why}")
        for i, term in enumerate(self.terms, start=1):
            bound = ", ".join(sorted(str(a) for a in term.bound))
            status = "keys covered" if term.satisfied else (
                "keys missing for " + ", ".join(term.missing_tables)
            )
            lines.append(f"term E{i}: V = {{{bound}}} -> {status}")
        return "\n".join(lines)

    def witness(self) -> dict:
        """The decision's evidence as plain serializable data — the
        audit trail's record of *why* Algorithm 1 answered as it did:
        the projection seed, every dropped CNF clause with its reason,
        and the bound-attribute closure per disjunctive term (naming
        the tables whose keys failed to bind, when any did)."""
        from ..sql.printer import to_sql

        payload: dict = {
            "projection": sorted(str(a) for a in self.projection),
        }
        if self.dropped_clauses:
            payload["dropped_clauses"] = [
                {
                    "clause": " OR ".join(to_sql(atom) for atom in clause),
                    "why": why,
                }
                for clause, why in self.dropped_clauses
            ]
        terms = []
        for i, term in enumerate(self.terms, start=1):
            entry: dict = {
                "term": f"E{i}",
                "bound_closure": sorted(str(a) for a in term.bound),
            }
            if term.missing_tables:
                entry["keys_missing_for"] = list(term.missing_tables)
            else:
                entry["keys_covered"] = True
            terms.append(entry)
        if terms:
            payload["terms"] = terms
        return payload


#: Algorithm 1 verdicts, keyed (catalog fingerprint, query text, options).
#: DDL bumps the catalog fingerprint, so re-registering a table — even
#: under the same name with different keys — can never serve a stale
#: verdict.  Cached results are shared: treat them as read-only.
_uniqueness_cache = LRUCache("uniqueness", maxsize=512)


def test_uniqueness(
    query: SelectQuery | str,
    catalog: Catalog,
    options: UniquenessOptions | None = None,
    *,
    text: str | None = None,
) -> UniquenessResult:
    """Run Algorithm 1: is duplicate elimination unnecessary for *query*?

    The quantifier of *query* is ignored — the test asks whether the
    projection is duplicate-free *without* duplicate elimination.
    *text* is ``to_sql(query)`` when the caller already printed the
    parsed *query* (the verdict memo keys on it); omitted, it is
    printed here.
    """
    options = options or UniquenessOptions()

    # SQL text keys directly (equal text parses equally), so a warm hit
    # skips parsing as well as the analysis; ASTs key on their rendering.
    # Fail-closed: an uncomputable fingerprint skips the cache entirely.
    if isinstance(query, str):
        text = query
    elif text is None:
        text = to_sql(query)
    if not TRACER.enabled:
        return _cached_test_uniqueness(query, text, catalog, options)
    with TRACER.span("uniqueness.algorithm1", sql=text) as span:
        result = _cached_test_uniqueness(query, text, catalog, options)
        if span:
            span.attributes["unique"] = result.unique
        return result


def _cached_test_uniqueness(
    query: SelectQuery | str,
    text: str,
    catalog: Catalog,
    options: UniquenessOptions,
) -> UniquenessResult:
    """The cache-lookup wrapper around the Algorithm 1 body."""
    key = None
    fingerprint = safe_fingerprint(catalog)
    if fingerprint is not None:
        key = (fingerprint, text, options)
        cached = _uniqueness_cache.get(key)
        if cached is not MISSING:
            return cached

    if FAULTS.armed:
        FAULTS.check(SITE_UNIQUENESS)
    if isinstance(query, str):
        parsed = parse_query(query)
        if not isinstance(parsed, SelectQuery):
            raise UnsupportedQueryError(
                "test_uniqueness requires a query specification; use "
                "is_duplicate_free for query expressions"
            )
        query = parsed
    result = _test_uniqueness(query, catalog, options)
    if FAULTS.armed:
        # A corrupt fault rewrites the verdict *before* it is cached —
        # deliberately poisoning the cache so safe mode's detection,
        # quarantine, and eviction path can be exercised end to end.
        result = FAULTS.corrupt(SITE_UNIQUENESS, result)
    if key is not None:
        _uniqueness_cache.put(key, result)
    return result


def _test_uniqueness(
    query: SelectQuery,
    catalog: Catalog,
    options: UniquenessOptions,
) -> UniquenessResult:
    """The uncached Algorithm 1 body."""
    # Theorem 1's precondition: every table contributes a candidate key.
    keyless = [
        table_ref.name
        for table_ref in query.tables
        if not catalog.table(table_ref.name).has_key()
    ]
    if keyless:
        return UniquenessResult(
            False, f"table(s) without a candidate key: {', '.join(keyless)}"
        )

    projection = projection_attributes(query, catalog)
    predicate = qualify_query_predicate(query, catalog, allow_correlated=True)

    if options.use_check_constraints:
        constraint_parts = _usable_check_conjuncts(query, catalog)
        if constraint_parts:
            from ..sql.expressions import conjoin

            parts = ([predicate] if predicate is not None else [])
            predicate = conjoin(parts + constraint_parts)

    kept, dropped = _filter_clauses(predicate, options)

    result = UniquenessResult(
        unique=False,
        reason="",
        projection=projection,
        kept_clauses=kept,
        dropped_clauses=dropped,
    )

    if not kept and options.paper_strict:
        result.reason = (
            "no equality conditions survive filtering "
            "(paper line 10 answers NO)"
        )
        return result

    terms = _dnf_terms(kept, options.clause_budget)
    if terms is None:
        result.reason = "DNF expansion exceeds the clause budget"
        return result

    for term in terms:
        report = _analyze_term(term, projection, query.tables, catalog, options)
        result.terms.append(report)
        if not report.satisfied:
            result.reason = (
                "a disjunctive component leaves table(s) "
                f"{', '.join(report.missing_tables)} without a bound key"
            )
            return result

    result.unique = True
    result.reason = (
        "every disjunctive component binds a candidate key of every table"
    )
    return result


# Keep pytest from collecting the library entry point as a test.
test_uniqueness.__test__ = False  # type: ignore[attr-defined]


def is_duplicate_free(
    query: Query | str,
    catalog: Catalog,
    options: UniquenessOptions | None = None,
) -> bool:
    """Whether *query*, as written, provably yields no duplicate rows.

    Handles query expressions as well as query specifications:

    * ``DISTINCT`` blocks and DISTINCT set operations never produce
      duplicates;
    * an ``INTERSECT ALL`` is duplicate-free when either operand is
      (each output count is ``min(j, k)``);
    * an ``EXCEPT ALL`` is duplicate-free when its left operand is
      (output counts never exceed ``j``);
    * a ``UNION ALL`` is never provably duplicate-free here (the two
      operands may overlap).
    """
    if isinstance(query, str):
        query = parse_query(query)
    if isinstance(query, SelectQuery):
        if query.distinct:
            return True
        return test_uniqueness(query, catalog, options).unique
    assert isinstance(query, SetOperation)
    if not query.all:
        return True
    left = is_duplicate_free(query.left, catalog, options)
    if query.kind is SetOpKind.INTERSECT:
        return left or is_duplicate_free(query.right, catalog, options)
    if query.kind is SetOpKind.EXCEPT:
        return left
    return False  # UNION ALL


# ----------------------------------------------------------------------
# internal steps


#: Why :func:`_filter_clauses` dropped a whole predicate.
CNF_OVERFLOW = "CNF expansion exceeds the clause budget"


def _filter_clauses(
    predicate: Expr | None, options: UniquenessOptions
) -> tuple[list[list[Expr]], list[tuple[list[Expr], str]]]:
    """CNF conversion plus the deletion steps of lines 6–9."""
    if predicate is None:
        return [], []
    try:
        clauses = to_cnf_clauses(predicate, budget=options.clause_budget)
    except NormalFormOverflow:
        return [], [([predicate], CNF_OVERFLOW)]

    kept: list[list[Expr]] = []
    dropped: list[tuple[list[Expr], str]] = []
    for clause in clauses:
        verdict = _clause_verdict(clause, options)
        if verdict is None:
            kept.append(clause)
        else:
            dropped.append((clause, verdict))
    return kept, dropped


def _clause_verdict(clause: list[Expr], options: UniquenessOptions) -> str | None:
    """Why a CNF clause must be dropped, or None to keep it."""
    classified = [
        classify_atom(atom, options.treat_is_null_as_binding) for atom in clause
    ]
    if any(equality is None for equality in classified):
        return "contains an atom that is not a Type 1 or Type 2 equality"
    if len(clause) > 1:
        if options.disjunction_handling == "conservative":
            return "disjunctive clause (conservative mode drops all)"
        seen: set[Attribute] = set()
        for atom in clause:
            attributes = atom_attributes(atom)
            if attributes & seen:
                return (
                    "disjunctive clause on a single column "
                    "(e.g. X = 5 OR X = 10)"
                )
            seen |= attributes
    return None


def _dnf_terms(
    clauses: list[list[Expr]], budget: int
) -> list[tuple[Expr, ...]] | None:
    """Distribute the kept CNF clauses into DNF terms (line 11).

    Each term picks one atom from every clause.  Returns None when the
    expansion exceeds *budget*.
    """
    size = 1
    for clause in clauses:
        size *= len(clause)
        if size > budget:
            return None
    if not clauses:
        return [()]
    return list(itertools.product(*clauses))


def _analyze_term(
    term: tuple[Expr, ...],
    seed: Iterable[Attribute],
    tables: Sequence[TableRef],
    catalog: Catalog,
    options: UniquenessOptions,
) -> TermReport:
    """Lines 13–17 for one conjunctive component E_i: close *seed* over
    the term's equalities and name the *tables* left without a bound
    candidate key."""
    equalities = [
        equality
        for atom in term
        if (equality := classify_atom(atom, options.treat_is_null_as_binding))
        is not None
    ]
    bound = bound_closure(seed, equalities)

    missing: list[str] = []
    for table_ref in tables:
        alias = table_ref.effective_name
        columns = {a.column for a in bound if a.relation == alias}
        if catalog.table(table_ref.name).covered_key(columns) is None:
            missing.append(alias)
    return TermReport(equalities=equalities, bound=bound, missing_tables=missing)


def _usable_check_conjuncts(
    query: SelectQuery, catalog: Catalog
) -> list[Expr]:
    """CHECK conjuncts that are definitely TRUE for every stored row.

    Per SQL2 a CHECK passes when its condition is true **or unknown**, so
    a conjunct is exploitable only when it cannot evaluate to unknown —
    guaranteed here by requiring every referenced column to be NOT NULL.
    The conjunct is re-qualified with the FROM-clause correlation name.
    """
    from ..sql.expressions import ColumnRef, conjuncts

    usable: list[Expr] = []
    for table_ref in query.tables:
        schema = catalog.table(table_ref.name)
        alias = table_ref.effective_name
        for check in schema.checks:
            for conjunct in conjuncts(check.condition):
                refs = [
                    node
                    for node in conjunct.walk()
                    if isinstance(node, ColumnRef)
                ]
                non_nullable = True
                for ref in refs:
                    if ref.qualifier not in (None, alias, schema.name):
                        non_nullable = False
                        break
                    if not schema.has_column(ref.column):
                        non_nullable = False
                        break
                    if schema.column(ref.column).nullable:
                        non_nullable = False
                        break
                if not non_nullable or not refs:
                    continue
                mapping: dict[Expr, Expr] = {
                    ref: ColumnRef(alias, ref.column)
                    for ref in refs
                    if ref.qualifier != alias
                }
                usable.append(
                    conjunct.replace(mapping) if mapping else conjunct
                )
    return usable
