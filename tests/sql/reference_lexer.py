"""Hand-written lexer for the SQL2 subset used by the paper.

The lexer converts SQL text into a list of :class:`~repro.sql.tokens.Token`
objects.  It supports:

* case-insensitive keywords and identifiers (identifiers may contain
  ``_``, ``-`` and ``#`` after the first character, matching the paper's
  column names such as ``OEM-PNO``),
* double-quoted delimited identifiers,
* single-quoted string literals with ``''`` escaping,
* integer and decimal numeric literals,
* host variables written ``:NAME`` (e.g. ``:SUPPLIER-NO``),
* operators ``= <> != < <= > >=`` and punctuation ``( ) , . * ;``,
* ``--`` line comments and ``/* ... */`` block comments.
"""

from __future__ import annotations

from repro.errors import LexerError
from repro.sql.tokens import (
    KEYWORDS,
    ONE_CHAR_OPERATORS,
    PUNCTUATION,
    TWO_CHAR_OPERATORS,
    Token,
    TokenType,
)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789-#$")
_DIGITS = frozenset("0123456789")


class Lexer:
    """Tokenizes a SQL string.

    Use :func:`tokenize` for the common one-shot case.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Scan the full input, returning tokens ending with an EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._text):
                tokens.append(Token(TokenType.EOF, None, self._line, self._column))
                return tokens
            tokens.append(self._next_token())

    # ------------------------------------------------------------------
    # scanning helpers

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self._text[self._pos : self._pos + count]
        for ch in chunk:
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return chunk

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self._pos, self._line, self._column)

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    # ------------------------------------------------------------------
    # token producers

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        ch = self._peek()

        if ch in _IDENT_START:
            return self._lex_word(line, column)
        if ch in _DIGITS:
            return self._lex_number(line, column)
        if ch == "'":
            return self._lex_string(line, column)
        if ch == '"':
            return self._lex_delimited_identifier(line, column)
        if ch == ":":
            return self._lex_host_variable(line, column)

        two = self._text[self._pos : self._pos + 2]
        if two in TWO_CHAR_OPERATORS:
            self._advance(2)
            value = "<>" if two == "!=" else two
            return Token(TokenType.OPERATOR, value, line, column)
        if ch in ONE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenType.OPERATOR, ch, line, column)
        if ch in PUNCTUATION:
            self._advance()
            return Token(TokenType.PUNCT, ch, line, column)

        raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self, line: int, column: int) -> Token:
        start = self._pos
        self._advance()
        while self._peek() in _IDENT_CONT:
            # A '-' is part of an identifier only when followed by another
            # identifier character; otherwise it would swallow subtraction
            # or '--' comments.  The paper's schema uses names like OEM-PNO.
            if self._peek() == "-" and self._peek(1) not in _IDENT_CONT:
                break
            if self._peek() == "-" and self._peek(1) == "-":
                break
            self._advance()
        word = self._text[start : self._pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, line, column)
        return Token(TokenType.IDENTIFIER, upper, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self._pos
        while self._peek() in _DIGITS:
            self._advance()
        is_float = False
        if self._peek() == "." and self._peek(1) in _DIGITS:
            is_float = True
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        text = self._text[start : self._pos]
        value: int | float = float(text) if is_float else int(text)
        return Token(TokenType.NUMBER, value, line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        pieces: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":
                    pieces.append("'")
                    self._advance(2)
                    continue
                self._advance()
                break
            pieces.append(ch)
            self._advance()
        return Token(TokenType.STRING, "".join(pieces), line, column)

    def _lex_delimited_identifier(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        start = self._pos
        while self._pos < len(self._text) and self._peek() != '"':
            self._advance()
        if self._pos >= len(self._text):
            raise self._error("unterminated delimited identifier")
        name = self._text[start : self._pos]
        self._advance()  # closing quote
        return Token(TokenType.IDENTIFIER, name.upper(), line, column)

    def _lex_host_variable(self, line: int, column: int) -> Token:
        self._advance()  # the colon
        if self._peek() not in _IDENT_START:
            raise self._error("expected identifier after ':'")
        start = self._pos
        self._advance()
        while self._peek() in _IDENT_CONT:
            if self._peek() == "-" and self._peek(1) not in _IDENT_CONT:
                break
            self._advance()
        name = self._text[start : self._pos].upper()
        return Token(TokenType.HOST_VAR, name, line, column)


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, returning a token list terminated by EOF."""
    return Lexer(text).tokenize()
