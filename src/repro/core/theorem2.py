"""Theorem 2: when a positive existential subquery matches at most one
inner tuple per outer candidate row.

The test is Algorithm 1 with the outer row held constant: the same
clause filter, DNF expansion and bound closure
(:mod:`repro.core.uniqueness`), but the closure is seeded with the
**outer** block's columns (fixed for the duration of one outer row)
instead of a projection list, and the tables whose candidate keys must
be bound are the inner block's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.schema import Catalog
from ..sql.ast import SelectQuery
from ..analysis.attributes import AttributeSet
from ..analysis.binding import qualify, table_columns
from ..analysis.conditions import atom_attributes
from .uniqueness import (
    CNF_OVERFLOW,
    UniquenessOptions,
    _analyze_term,
    _dnf_terms,
    _filter_clauses,
)


@dataclass
class SubqueryUniqueness:
    """Outcome of the Theorem 2 test for one subquery block."""

    at_most_one: bool
    reason: str
    terms: list[AttributeSet] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.at_most_one

    def witness(self) -> dict:
        """The evidence for the audit trail: the reason plus the
        bound-attribute closure of each disjunctive term."""
        payload: dict = {"reason": self.reason}
        if self.terms:
            payload["terms"] = [
                {
                    "term": f"E{i}",
                    "bound_closure": sorted(str(a) for a in term),
                }
                for i, term in enumerate(self.terms, start=1)
            ]
        return payload


def subquery_matches_at_most_one(
    inner: SelectQuery,
    outer: SelectQuery,
    catalog: Catalog,
    options: UniquenessOptions | None = None,
) -> SubqueryUniqueness:
    """Test Theorem 2's condition for *inner* correlated under *outer*.

    Column references in the inner WHERE clause are resolved first
    against the inner FROM clause, then against the outer one; outer
    references act as per-row constants.
    """
    options = options or UniquenessOptions()

    inner_columns = table_columns(inner, catalog)
    outer_columns = table_columns(outer, catalog)

    keyless = [
        ref.name
        for ref in inner.tables
        if not catalog.table(ref.name).has_key()
    ]
    if keyless:
        return SubqueryUniqueness(
            False, f"inner table(s) without a candidate key: {', '.join(keyless)}"
        )

    predicate = inner.where
    if predicate is None:
        return SubqueryUniqueness(
            False, "no selection predicate binds the inner tables"
        )
    # Two-stage qualification: inner names win, outer names catch the
    # correlated references.
    predicate = qualify(predicate, inner_columns, allow_correlated=True)
    predicate = qualify(predicate, outer_columns, allow_correlated=True)

    kept, dropped = _filter_clauses(predicate, options)
    if dropped and dropped[0][1] == CNF_OVERFLOW:
        return SubqueryUniqueness(False, CNF_OVERFLOW)

    terms = _dnf_terms(kept, options.clause_budget)
    if terms is None:
        return SubqueryUniqueness(False, "DNF expansion exceeds the clause budget")

    inner_aliases = set(inner_columns)
    result = SubqueryUniqueness(True, "")
    for term in terms:
        outer_row = [
            attribute
            for atom in term
            for attribute in atom_attributes(atom)
            if attribute.relation not in inner_aliases
        ]
        report = _analyze_term(term, outer_row, inner.tables, catalog, options)
        result.terms.append(
            frozenset(a for a in report.bound if a.relation in inner_aliases)
        )
        if not report.satisfied:
            result.at_most_one = False
            result.reason = (
                f"inner table {report.missing_tables[0]} has no candidate key "
                "bound by the correlation/selection predicate"
            )
            return result
    result.reason = (
        "every disjunctive component binds a candidate key of every inner table"
    )
    return result
