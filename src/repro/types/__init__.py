"""SQL value model: three-valued logic, NULL, comparisons, domains."""

from .domains import Domain, DomainMap
from .tristate import FALSE, TRUE, UNKNOWN, Tristate, all3, any3
from .values import (
    NULL,
    SqlValue,
    compare_where,
    eq_equivalent,
    eq_where,
    format_value,
    is_null,
    row_sort_key,
    sort_key,
)

__all__ = [
    "Domain",
    "DomainMap",
    "FALSE",
    "NULL",
    "SqlValue",
    "TRUE",
    "Tristate",
    "UNKNOWN",
    "all3",
    "any3",
    "compare_where",
    "eq_equivalent",
    "eq_where",
    "format_value",
    "is_null",
    "row_sort_key",
    "sort_key",
]
