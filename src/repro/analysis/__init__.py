"""Predicate analysis: binding, normal forms, equality classification."""

from .attributes import Attribute, AttributeSet, attribute_set
from .binding import (
    projection_attributes,
    qualify,
    qualify_query_predicate,
    resolve_column,
    table_columns,
)
from .closure import bound_closure
from .conditions import Equality, Type1, Type2, atom_attributes, classify_atom
from .normal_forms import (
    DEFAULT_CLAUSE_BUDGET,
    NormalFormOverflow,
    clauses_to_expr,
    expand_sugar,
    to_cnf_clauses,
    to_nnf,
)

__all__ = [
    "Attribute",
    "AttributeSet",
    "DEFAULT_CLAUSE_BUDGET",
    "Equality",
    "NormalFormOverflow",
    "Type1",
    "Type2",
    "atom_attributes",
    "attribute_set",
    "bound_closure",
    "classify_atom",
    "clauses_to_expr",
    "expand_sugar",
    "projection_attributes",
    "qualify",
    "qualify_query_predicate",
    "resolve_column",
    "table_columns",
    "to_cnf_clauses",
    "to_nnf",
]
