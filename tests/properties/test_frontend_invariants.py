"""Property tests for the SQL front end and normal forms.

* printer/parser round-trip over randomly generated predicate trees,
* CNF/NNF three-valued semantic equivalence over random predicates
  (brute-forced over a small row space),
* random CREATE TABLE round-trips.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    NormalFormOverflow,
    clauses_to_expr,
    to_cnf_clauses,
    to_nnf,
)
from repro.engine import Evaluator, RelSchema, Scope
from repro.engine.schema import ColumnInfo
from repro.sql import parse, parse_condition, to_sql
from repro.sql.expressions import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    HostVar,
    InList,
    IsNull,
    Literal,
    Not,
    conjoin,
    disjoin,
)
from repro.types import NULL

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

COLUMNS = [ColumnRef("T", "A"), ColumnRef("T", "B"), ColumnRef("T", "C")]
SCHEMA = RelSchema([ColumnInfo("T", "A"), ColumnInfo("T", "B"), ColumnInfo("T", "C")])
DOMAIN = (0, 1, NULL)


def random_predicate(rng: random.Random, depth: int = 3) -> Expr:
    """A random predicate tree over three columns."""
    if depth <= 0 or rng.random() < 0.35:
        return _random_atom(rng)
    kind = rng.random()
    if kind < 0.35:
        return conjoin(
            [random_predicate(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        )
    if kind < 0.7:
        return disjoin(
            [random_predicate(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        )
    return Not(random_predicate(rng, depth - 1))


def _random_atom(rng: random.Random) -> Expr:
    column = rng.choice(COLUMNS)
    kind = rng.random()
    if kind < 0.4:
        op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
        return Comparison(op, column, Literal(rng.choice((0, 1, 2))))
    if kind < 0.6:
        return Comparison("=", column, rng.choice(COLUMNS))
    if kind < 0.75:
        return IsNull(column, negated=rng.random() < 0.5)
    if kind < 0.9:
        return Between(
            column,
            Literal(rng.choice((0, 1))),
            Literal(rng.choice((1, 2))),
            negated=rng.random() < 0.3,
        )
    return InList(
        column,
        tuple(Literal(v) for v in rng.sample((0, 1, 2), rng.randint(1, 2))),
        negated=rng.random() < 0.3,
    )


def truth_vector(expr: Expr) -> list:
    evaluator = Evaluator()
    return [
        evaluator.predicate(expr, Scope(SCHEMA, row))
        for row in itertools.product(DOMAIN, repeat=3)
    ]


@settings(max_examples=250, **COMMON)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_predicate_print_parse_round_trip(seed):
    """to_sql . parse_condition is the identity on predicate ASTs."""
    expr = random_predicate(random.Random(seed))
    assert parse_condition(to_sql(expr)) == expr


@settings(max_examples=150, **COMMON)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_normal_forms_preserve_three_valued_semantics(seed):
    """NNF/CNF agree with the original on every row, including NULLs."""
    expr = random_predicate(random.Random(seed))
    reference = truth_vector(expr)
    try:
        nnf = to_nnf(expr)
        cnf = clauses_to_expr(to_cnf_clauses(expr))
    except NormalFormOverflow:
        return
    assert truth_vector(nnf) == reference
    assert truth_vector(cnf) == reference


@settings(max_examples=150, **COMMON)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_query_print_parse_round_trip(seed):
    """Full SELECT statements round-trip through the printer."""
    rng = random.Random(seed)
    from repro.sql.ast import (
        Quantifier,
        SelectItem,
        SelectQuery,
        SetOperation,
        SetOpKind,
        TableRef,
    )

    def random_select():
        where = random_predicate(rng, depth=2) if rng.random() < 0.8 else None
        if rng.random() < 0.2 and where is not None:
            where = conjoin(
                [where, Comparison("=", COLUMNS[0], HostVar("H-VAR"))]
            )
        return SelectQuery(
            quantifier=(
                Quantifier.DISTINCT if rng.random() < 0.5 else Quantifier.ALL
            ),
            select_list=tuple(
                SelectItem(rng.choice(COLUMNS))
                for _ in range(rng.randint(1, 3))
            ),
            tables=(TableRef("T"),),
            where=where,
        )

    query = random_select()
    if rng.random() < 0.4:
        query = SetOperation(
            rng.choice(list(SetOpKind)),
            rng.random() < 0.5,
            query,
            random_select(),
        )
    assert parse(to_sql(query)) == query
