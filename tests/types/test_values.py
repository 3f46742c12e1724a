"""NULL semantics, the two equality operators, and canonical ordering."""

from repro.types import (
    FALSE,
    NULL,
    TRUE,
    UNKNOWN,
    compare_where,
    eq_equivalent,
    eq_where,
    format_value,
    is_null,
    row_sort_key,
    sort_key,
)
from repro.types.values import row_keys


class TestNull:
    def test_null_is_singleton(self):
        from repro.types.values import _Null

        assert _Null() is NULL

    def test_null_is_falsy(self):
        assert not NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(None) is True or True  # None is not SQL NULL

    def test_none_is_not_sql_null(self):
        assert not is_null(None)


class TestWhereEquality:
    """WHERE semantics: NULL comparisons are UNKNOWN."""

    def test_equal_values(self):
        assert eq_where(1, 1) is TRUE
        assert eq_where("a", "b") is FALSE

    def test_null_operand_is_unknown(self):
        assert eq_where(NULL, 1) is UNKNOWN
        assert eq_where(1, NULL) is UNKNOWN
        assert eq_where(NULL, NULL) is UNKNOWN

    def test_ordering_operators(self):
        assert compare_where("<", 1, 2) is TRUE
        assert compare_where(">=", 2, 2) is TRUE
        assert compare_where(">", 1, 2) is FALSE
        assert compare_where("<>", 1, 2) is TRUE
        assert compare_where("<=", NULL, 2) is UNKNOWN

    def test_incomparable_types_are_unknown(self):
        assert compare_where("<", 1, "a") is UNKNOWN

    def test_numeric_cross_type_comparison(self):
        assert compare_where("=", 1, 1.0) is TRUE
        assert compare_where("<", 1, 1.5) is TRUE


class TestEquivalentEquality:
    """The paper's ≐ operator: NULL matches NULL (DISTINCT semantics)."""

    def test_null_equals_null(self):
        assert eq_equivalent(NULL, NULL)

    def test_null_differs_from_value(self):
        assert not eq_equivalent(NULL, 0)
        assert not eq_equivalent("x", NULL)

    def test_plain_values(self):
        assert eq_equivalent(3, 3)
        assert not eq_equivalent(3, 4)


class TestOrdering:
    def test_null_sorts_first(self):
        values = [3, NULL, 1, "a", NULL]
        ordered = sorted(values, key=sort_key)
        assert is_null(ordered[0]) and is_null(ordered[1])

    def test_mixed_types_have_total_order(self):
        values = ["b", 2, NULL, True, 1.5, "a"]
        ordered = sorted(values, key=sort_key)
        # bool < numeric < str after NULL
        assert is_null(ordered[0])
        assert ordered[1] is True
        assert ordered[2:4] == [1.5, 2]
        assert ordered[4:] == ["a", "b"]

    def test_row_sort_key_is_lexicographic(self):
        assert row_sort_key((1, 2)) < row_sort_key((1, 3))
        assert row_sort_key((NULL, 9)) < row_sort_key((0, 0))


def _distinct(rows):
    """The first row of each ``row_keys`` key, in first-seen order, as
    DISTINCT keeps them."""
    (keys,) = row_keys(rows)
    first = {}
    for key, row in zip(keys, rows):
        first.setdefault(key, row)
    return list(first.values())


class TestDistinctRows:
    def test_nulls_collapse(self):
        rows = [(1, NULL), (1, NULL), (1, 2)]
        assert _distinct(rows) == [(1, NULL), (1, 2)]

    def test_first_seen_order_preserved(self):
        rows = [(2,), (1,), (2,), (3,)]
        assert _distinct(rows) == [(2,), (1,), (3,)]


class TestFormatting:
    def test_null_literal(self):
        assert format_value(NULL) == "NULL"

    def test_string_quoting_and_escaping(self):
        assert format_value("it's") == "'it''s'"

    def test_booleans(self):
        assert format_value(True) == "TRUE"
        assert format_value(False) == "FALSE"

    def test_numbers(self):
        assert format_value(42) == "42"
        assert format_value(1.5) == "1.5"
