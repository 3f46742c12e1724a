"""CNF conversion and Algorithm 1's DNF step: structural checks and
semantic equivalence.

Semantic equivalence is verified by brute force: evaluate the original
and converted predicates over every assignment of a small row space
(including NULLs) and require identical three-valued outcomes.
"""

import itertools

import pytest

from repro.analysis import (
    DEFAULT_CLAUSE_BUDGET,
    NormalFormOverflow,
    clauses_to_expr,
    to_cnf_clauses,
    to_nnf,
)
from repro.core.uniqueness import _dnf_terms
from repro.engine import Evaluator, RelSchema, Scope
from repro.engine.schema import ColumnInfo
from repro.sql import And, Comparison, conjoin, disjoin, parse_condition
from repro.types import NULL


SCHEMA = RelSchema([ColumnInfo("T", "A"), ColumnInfo("T", "B"), ColumnInfo("T", "C")])
DOMAIN = (0, 1, NULL)


def dnf_of(text):
    """Algorithm 1's DNF (line 11): its CNF clauses multiplied out."""
    clauses = to_cnf_clauses(parse_condition(text))
    return _dnf_terms(clauses, DEFAULT_CLAUSE_BUDGET)


def assert_equivalent(original_text, converted):
    """Three-valued equivalence over the full small row space."""
    original = parse_condition(original_text)
    evaluator = Evaluator()
    for row in itertools.product(DOMAIN, repeat=3):
        scope = Scope(SCHEMA, row)
        assert evaluator.predicate(original, scope) is evaluator.predicate(
            converted, scope
        ), f"differs on row {row}"


PREDICATES = [
    "A = 1",
    "NOT A = 1",
    "NOT (A = 1 AND B = 0)",
    "NOT (A = 1 OR NOT B = 0)",
    "(A = 1 OR B = 1) AND (B = 0 OR C = 1)",
    "A = 1 AND (B = 1 OR (C = 1 AND A = 0))",
    "NOT (A = 1 AND (B = 1 OR C = 1))",
    "A BETWEEN 0 AND 1",
    "NOT A BETWEEN 0 AND 1",
    "A IN (0, 1)",
    "NOT A IN (0, 1)",
    "A IS NULL OR B = 1",
    "NOT (A IS NULL AND B = 1)",
    "A <> B AND NOT C < 1",
]


@pytest.mark.parametrize("text", PREDICATES)
def test_nnf_preserves_three_valued_semantics(text):
    assert_equivalent(text, to_nnf(parse_condition(text)))


@pytest.mark.parametrize("text", PREDICATES)
def test_cnf_preserves_three_valued_semantics(text):
    clauses = to_cnf_clauses(parse_condition(text))
    assert_equivalent(text, clauses_to_expr(clauses))


@pytest.mark.parametrize("text", PREDICATES)
def test_dnf_preserves_three_valued_semantics(text):
    terms = dnf_of(text)
    assert_equivalent(text, disjoin([conjoin(list(term)) for term in terms]))


class TestStructure:
    def test_nnf_pushes_not_onto_atoms(self):
        nnf = to_nnf(parse_condition("NOT (A = 1 OR B = 2)"))
        assert isinstance(nnf, And)
        assert all(isinstance(op, Comparison) for op in nnf.operands)
        assert [op.op for op in nnf.operands] == ["<>", "<>"]

    def test_nnf_absorbs_double_negation(self):
        nnf = to_nnf(parse_condition("NOT NOT A = 1"))
        assert isinstance(nnf, Comparison) and nnf.op == "="

    def test_nnf_keeps_not_on_opaque_atoms(self):
        # an EXISTS negation is representable, so no NOT survives
        nnf = to_nnf(parse_condition("NOT EXISTS (SELECT * FROM T)"))
        from repro.sql import Exists

        assert isinstance(nnf, Exists) and nnf.negated

    def test_cnf_of_disjunction_of_conjunctions(self):
        clauses = to_cnf_clauses(
            parse_condition("(A = 1 AND B = 1) OR C = 1")
        )
        assert len(clauses) == 2
        assert all(len(clause) == 2 for clause in clauses)

    def test_dnf_of_conjunction_of_disjunctions(self):
        terms = dnf_of("(A = 1 OR B = 1) AND (C = 1 OR A = 0)")
        assert len(terms) == 4

    def test_between_expanded_before_conversion(self):
        clauses = to_cnf_clauses(parse_condition("A BETWEEN 1 AND 2"))
        assert len(clauses) == 2  # >= and <=

    def test_in_list_becomes_disjunctive_clause(self):
        clauses = to_cnf_clauses(parse_condition("A IN (5, 10)"))
        assert len(clauses) == 1 and len(clauses[0]) == 2

    def test_duplicate_atoms_deduplicated(self):
        clauses = to_cnf_clauses(parse_condition("A = 1 AND A = 1"))
        assert len(clauses) == 1

    def test_overflow_raises(self):
        # (a AND b) OR ... 20 times -> 2^20 CNF clauses
        text = " OR ".join(f"(A = {i} AND B = {i})" for i in range(20))
        with pytest.raises(NormalFormOverflow):
            to_cnf_clauses(parse_condition(text), budget=64)

    def test_dnf_step_overflow_is_none(self):
        # (a OR b) AND ... 20 times -> 2^20 DNF terms
        text = " AND ".join(f"(A = {i} OR B = {i})" for i in range(20))
        clauses = to_cnf_clauses(parse_condition(text))
        assert _dnf_terms(clauses, 64) is None
