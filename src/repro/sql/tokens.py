"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    """Lexical categories produced by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    HOST_VAR = "host_var"  # :NAME — a host (program) variable
    OPERATOR = "operator"  # = <> < <= > >=
    PUNCT = "punct"  # ( ) , . * ;
    EOF = "eof"


#: Reserved words recognized by the parser.  Matching is case-insensitive;
#: keywords are normalized to upper case.
KEYWORDS = frozenset(
    {
        "ALL",
        "AND",
        "AS",
        "BEGIN",
        "ASC",
        "BETWEEN",
        "BY",
        "CHAR",
        "CHECK",
        "COMMIT",
        "CREATE",
        "DELETE",
        "DESC",
        "DISTINCT",
        "EXCEPT",
        "EXISTS",
        "FALSE",
        "FOREIGN",
        "FROM",
        "IN",
        "INSERT",
        "INT",
        "INTEGER",
        "INTERSECT",
        "INTO",
        "IS",
        "KEY",
        "NOT",
        "NULL",
        "ON",
        "OR",
        "ORDER",
        "ROLLBACK",
        "PRIMARY",
        "REFERENCES",
        "SELECT",
        "SET",
        "TABLE",
        "TRANSACTION",
        "TRUE",
        "UNION",
        "UNIQUE",
        "UPDATE",
        "VALUES",
        "VARCHAR",
        "WHERE",
        "WORK",
    }
)

#: Multi-character operators, checked before single-character ones.
TWO_CHAR_OPERATORS = ("<>", "<=", ">=", "!=")
ONE_CHAR_OPERATORS = ("=", "<", ">")
PUNCTUATION = "(),.*;"


class Token(NamedTuple):
    """A single lexical token.

    A named tuple, not a dataclass: the lexer builds one per token of
    every statement, and tuple construction is several times cheaper.

    Attributes:
        type: the lexical category.
        value: normalized token text (keywords upper-cased, strings
            unquoted, numbers converted to int/float).
        line / column: one-based source position, for error messages.
    """

    type: TokenType
    value: Any
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.value}, {self.value!r}, {self.line}:{self.column})"
