"""The regex lexer ≡ the per-character lexer it replaced.

``reference_lexer.py`` is the old hand-written ``Lexer``, moved here
unchanged as the oracle.  For any input the two must produce the same
token list — types, values, lines and columns — or raise a
:class:`~repro.errors.LexerError` with the same message, position, line
and column.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import LexerError
from repro.sql import Lexer, tokenize

from . import reference_lexer

REPO = Path(__file__).resolve().parents[2]
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def outcome(lex, text):
    """Tokens, or the error's full identity."""
    try:
        return [tuple(token) for token in lex(text)]
    except LexerError as error:
        return (str(error), error.position, error.line, error.column)


def assert_same(text):
    """Both lexers agree on *text*; returns what they agreed on."""
    result = outcome(tokenize, text)
    assert result == outcome(reference_lexer.tokenize, text), repr(text)
    return result


# Fragments that meet at every boundary the lexer distinguishes: the
# hyphen rule (A-B / A - B / A--B), comment openers and closers, quote
# escapes and unterminated quotes, ':' with and without a name, operator
# prefixes, decimal points, every whitespace flavour, and characters no
# alternative accepts.
FRAGMENTS = [
    "SELECT", "select", "DISTINCT", "FROM", "WHERE", "OEM-PNO", "A-B", "A - B",
    "A--B", "A-", "-", "--", "-- note", "/*", "*/", "/* c */", "/*\n*/", "/",
    "*", "'", "''", "'it''s'", "'two\nlines'", '"', '"Weird Name"', '"a\nb"',
    ":", ":X", ":SUPPLIER-NO", ":A--B", ":A-", "1", "42", "3.25", "1.", ".5",
    "9z", "<>", "<=", ">=", "!=", "!", "=", "<", ">", "(", ")", ",", ".", ";",
    "#", "$", "_", "x_1", "a#b$", " ", "  ", "\t", "\n", "\r\n", "\x0c",
    "\x1c", "\xa0", " ", "é", "@", "\\", "%",
]

grammar_shaped = st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join)


@settings(max_examples=1500, **COMMON)
@given(grammar_shaped)
def test_grammar_shaped_strings(text):
    assert_same(text)


@settings(max_examples=1500, **COMMON)
@given(st.text(max_size=40))
def test_arbitrary_characters(text):
    assert_same(text)


@settings(max_examples=500, **COMMON)
@given(st.text(alphabet="Aa1 -'\":/*.\n<>=!_#", max_size=30))
def test_dense_punctuation_alphabet(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "'oops",                 # unterminated string
        "'a''",                  # ... ending in an escaped quote
        "SELECT 'x\n\n  y",      # ... across lines
        '"oops',                 # unterminated delimited identifier
        "/* never closed",       # unterminated block comment
        "/*/",                   # the '*' cannot both open and close
        "a /* x */ /* y",
        ":",                     # ':' without a name
        "A = :1",
        "x\n  :",
        "A - B",
        "A--B\nC",
        "SELECT\r\n  A\n\tFROM T -- tail",
    ],
)
def test_named_edge_cases(text):
    assert_same(text)


def _string_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _corpus():
    """Every string constant in tests/, examples/ and repro.workloads —
    all the SQL the repo knows, plus prose that must fail identically."""
    files = [
        *sorted((REPO / "tests").rglob("*.py")),
        *sorted((REPO / "examples").glob("*.py")),
        *sorted((REPO / "src" / "repro" / "workloads").glob("*.py")),
    ]
    strings = set()
    for path in files:
        strings |= _string_constants(path)
    return sorted(strings)


def test_fixed_corpus():
    corpus = _corpus()
    lexed = 0
    for text in corpus:
        lexed += isinstance(assert_same(text), list)
    # The corpus really contains SQL, not only prose that errors out.
    assert lexed > 500, (lexed, len(corpus))


def test_lexer_class_delegates():
    text = "SELECT OEM-PNO FROM PARTS -- c\nWHERE A <> :N"
    assert Lexer(text).tokenize() == tokenize(text)
