"""Regex lexer for the SQL2 subset used by the paper.

:func:`tokenize` converts SQL text into a list of
:class:`~repro.sql.tokens.Token` values with one compiled master
pattern, matched at successive positions.  The alternation order *is*
the token grammar:

1. **skip** — whitespace, ``--`` line comments, ``/* ... */`` block
   comments;
2. **word** — keyword or identifier, case-insensitive, upper-cased.
   After the first character an identifier may contain ``_ # $``, digits
   and ``-`` — but a ``-`` belongs to the word only when an identifier
   character other than ``-`` follows (the paper's ``OEM-PNO``), so
   ``A - B`` and ``A--comment`` still split;
3. **number** — integer or decimal literal;
4. **string** — single-quoted, ``''`` escapes a quote;
5. **delimited identifier** — double-quoted, upper-cased;
6. **host variable** — ``:NAME`` (e.g. ``:SUPPLIER-NO``);
7. **operator** — two-character ``<> <= >= !=`` before one-character
   ``= < >`` (``!=`` normalizes to ``<>``);
8. **punctuation** — ``( ) , . * ;``.

Input no alternative matches raises :class:`~repro.errors.LexerError`.
"""

from __future__ import annotations

import re

from ..errors import LexerError
from .tokens import (
    KEYWORDS,
    ONE_CHAR_OPERATORS,
    PUNCTUATION,
    TWO_CHAR_OPERATORS,
    Token,
    TokenType,
)

_CONT = "A-Za-z0-9_#$"  # identifier characters after the first, bar '-'

_TOKEN = re.compile(
    rf"""
    (?: ( (?: \s+ | --[^\n]* | /\*[\s\S]*?\*/ )+ )
      | ( [A-Za-z_] (?: [{_CONT}] | -(?=[{_CONT}]) )* )
      | ( [0-9]+ (?: \.[0-9]+ )? )
      | '( [^']* (?: '' [^']* )* )'(?!')
      | "( [^"]* )"
      # Unlike a word, a host variable may contain '--'.
      | :( [A-Za-z_] (?: [{_CONT}] | -(?=[{_CONT}-]) )* )
      | ( {"|".join(map(re.escape, TWO_CHAR_OPERATORS + ONE_CHAR_OPERATORS))} )
      | ( [{re.escape(PUNCTUATION)}] )
    )
    # Blanks after a token ride along with it, so the usual
    # one-space-separated statement costs one match per token.
    [ ]*
    """,
    re.VERBOSE,
)
_SKIP, _WORD, _NUMBER, _STRING, _DELIMITED, _HOST_VAR, _OPERATOR, _PUNCT = range(1, 9)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, returning a token list terminated by EOF."""
    match = _TOKEN.match
    new = tuple.__new__  # skips the generated Token.__new__ frame
    keyword, identifier = TokenType.KEYWORD, TokenType.IDENTIFIER
    tokens: list[Token] = []
    append = tokens.append
    pos, end = 0, len(text)
    line, line_start = 1, 0  # line_start: offset just past the last newline
    while pos < end:
        found = match(text, pos)
        if found is None:
            raise _error(text, pos)
        kind = found.lastindex
        value = found.group(kind)
        column = pos - line_start + 1
        if kind == _WORD:
            value = value.upper()
            append(new(Token, (keyword if value in KEYWORDS else identifier, value, line, column)))
        elif kind == _PUNCT:
            append(new(Token, (TokenType.PUNCT, value, line, column)))
        elif kind == _OPERATOR:
            append(new(Token, (TokenType.OPERATOR, "<>" if value == "!=" else value, line, column)))
        elif kind == _NUMBER:
            number = float(value) if "." in value else int(value)
            append(new(Token, (TokenType.NUMBER, number, line, column)))
        elif kind == _HOST_VAR:
            append(new(Token, (TokenType.HOST_VAR, value.upper(), line, column)))
        else:
            # The three kinds that can span lines.
            if kind == _STRING:
                append(new(Token, (TokenType.STRING, value.replace("''", "'"), line, column)))
            elif kind == _DELIMITED:
                append(new(Token, (identifier, value.upper(), line, column)))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = found.start(kind) + value.rindex("\n") + 1
        pos = found.end()
    append(new(Token, (TokenType.EOF, None, line, end - line_start + 1)))
    return tokens


def _error(text: str, pos: int) -> LexerError:
    """The error for input at *pos* that no token alternative matches.

    An opening delimiter without its close is reported at the end of the
    input, where the scan for the close gave up.
    """
    if text.startswith("/*", pos):
        message, pos = "unterminated block comment", len(text)
    elif text[pos] == "'":
        message, pos = "unterminated string literal", len(text)
    elif text[pos] == '"':
        message, pos = "unterminated delimited identifier", len(text)
    elif text[pos] == ":":
        message, pos = "expected identifier after ':'", pos + 1
    else:
        message = f"unexpected character {text[pos]!r}"
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return LexerError(message, pos, line, column)


class Lexer:
    """Tokenizes a SQL string; :func:`tokenize` is the one-shot spelling."""

    def __init__(self, text: str) -> None:
        self._text = text

    def tokenize(self) -> list[Token]:
        """Scan the full input, returning tokens ending with an EOF token."""
        return tokenize(self._text)
