"""Property: every rewrite the optimizer applies preserves query results.

Random queries (including synthesized EXISTS correlations and set
operations) are optimized and executed before/after on random instances;
results must be multiset-identical.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Optimizer
from tests.engine.reference_executor import execute
from repro.sql.ast import (
    Quantifier,
    SelectItem,
    SelectQuery,
    SetOperation,
    SetOpKind,
    Star,
    TableRef,
)
from repro.sql.expressions import ColumnRef, Comparison, Exists, Literal, conjoin
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_query,
)

CONFIG = GeneratorConfig(max_tables=2, max_columns=3, max_rows=6)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def random_exists_query(rng, catalog):
    """An outer single-table block with a correlated EXISTS subquery."""
    names = catalog.table_names()
    outer_name = rng.choice(names)
    inner_name = rng.choice(names)
    outer_schema = catalog.table(outer_name)
    inner_schema = catalog.table(inner_name)
    outer_alias, inner_alias = "O", "I"

    correlation = Comparison(
        "=",
        ColumnRef(inner_alias, rng.choice(inner_schema.column_names)),
        ColumnRef(outer_alias, rng.choice(outer_schema.column_names)),
    )
    inner_parts = [correlation]
    if rng.random() < 0.7:
        inner_parts.append(
            Comparison(
                "=",
                ColumnRef(inner_alias, rng.choice(inner_schema.column_names)),
                Literal(rng.choice((0, 1, 2))),
            )
        )
    inner = SelectQuery(
        quantifier=Quantifier.ALL,
        select_list=(Star(),),
        tables=(TableRef(inner_name, inner_alias),),
        where=conjoin(inner_parts),
    )
    projection = rng.sample(
        outer_schema.column_names,
        rng.randint(1, len(outer_schema.column_names)),
    )
    return SelectQuery(
        quantifier=Quantifier.DISTINCT if rng.random() < 0.5 else Quantifier.ALL,
        select_list=tuple(
            SelectItem(ColumnRef(outer_alias, name)) for name in projection
        ),
        tables=(TableRef(outer_name, outer_alias),),
        where=Exists(inner),
    )


def random_setop_query(rng, catalog):
    """A set operation over two projection-compatible blocks."""
    names = catalog.table_names()
    left_name, right_name = rng.choice(names), rng.choice(names)
    left_schema, right_schema = catalog.table(left_name), catalog.table(right_name)
    width = min(
        rng.randint(1, 2),
        len(left_schema.column_names),
        len(right_schema.column_names),
    )
    left_columns = rng.sample(left_schema.column_names, width)
    right_columns = rng.sample(right_schema.column_names, width)

    def block(name, alias, columns):
        where = None
        schema = left_schema if name == left_name else right_schema
        if rng.random() < 0.5:
            where = Comparison(
                "=",
                ColumnRef(alias, rng.choice(schema.column_names)),
                Literal(rng.choice((0, 1, 2))),
            )
        return SelectQuery(
            quantifier=Quantifier.ALL,
            select_list=tuple(
                SelectItem(ColumnRef(alias, c)) for c in columns
            ),
            tables=(TableRef(name, alias),),
            where=where,
        )

    kind = rng.choice((SetOpKind.INTERSECT, SetOpKind.EXCEPT))
    return SetOperation(
        kind,
        rng.random() < 0.5,
        block(left_name, "L", left_columns),
        block(right_name, "R", right_columns),
    )


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relational_optimizer_preserves_plain_queries(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    optimized = Optimizer.for_relational(catalog).optimize(query)
    assert execute(query, database).same_rows(
        execute(optimized.query, database)
    ), optimized.explain()


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relational_optimizer_preserves_exists_queries(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_exists_query(rng, catalog)
    optimized = Optimizer.for_relational(catalog).optimize(query)
    assert execute(query, database).same_rows(
        execute(optimized.query, database)
    ), optimized.explain()


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relational_optimizer_preserves_set_operations(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_setop_query(rng, catalog)
    optimized = Optimizer.for_relational(catalog).optimize(query)
    assert execute(query, database).same_rows(
        execute(optimized.query, database)
    ), optimized.explain()


@settings(max_examples=80, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_navigational_optimizer_preserves_joins(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    optimized = Optimizer.for_navigational(catalog).optimize(query)
    assert execute(query, database).same_rows(
        execute(optimized.query, database)
    ), optimized.explain()


@settings(max_examples=60, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_fold_then_flatten(seed):
    """Folding a join into EXISTS and flattening it back must both
    preserve results (checked through execution, not syntax)."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = random_query(rng, catalog, CONFIG)
    folded = Optimizer.for_navigational(catalog).optimize(query)
    flattened = Optimizer.for_relational(catalog).optimize(folded.query)
    assert execute(query, database).same_rows(
        execute(flattened.query, database)
    )


def random_fk_join_query(rng, catalog):
    """A join between the FK pair of tables, if the catalog has one."""
    for schema in catalog:
        for fk in schema.foreign_keys:
            child, parent = schema.name, fk.ref_table
            fk_col = fk.columns[0]
            ref_col = fk.ref_columns[0] if fk.ref_columns else "C0"
            child_cols = catalog.table(child).column_names
            projection = rng.sample(
                child_cols, rng.randint(1, len(child_cols))
            )
            extra = []
            if rng.random() < 0.5:
                extra.append(
                    Comparison(
                        "=",
                        ColumnRef("C", rng.choice(child_cols)),
                        Literal(rng.choice((0, 1, 2))),
                    )
                )
            where = conjoin(
                [
                    Comparison(
                        "=", ColumnRef("C", fk_col), ColumnRef("P", ref_col)
                    )
                ]
                + extra
            )
            return SelectQuery(
                quantifier=Quantifier.ALL,
                select_list=tuple(
                    SelectItem(ColumnRef("C", name)) for name in projection
                ),
                tables=(TableRef(child, "C"), TableRef(parent, "P")),
                where=where,
            )
    return None


@settings(max_examples=120, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_join_elimination_preserves_results(seed):
    """Targeted property: FK joins survive elimination unchanged."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    query = random_fk_join_query(rng, catalog)
    if query is None:
        return
    database = random_database(rng, catalog, CONFIG)
    optimized = Optimizer.for_relational(catalog).optimize(query)
    assert execute(query, database).same_rows(
        execute(optimized.query, database)
    ), optimized.explain()


@settings(max_examples=80, **COMMON)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_strategy_selector_preserves_results(seed):
    """Whatever form the cost-based selector picks, results must match."""
    from repro.core import StrategySelector

    rng = random.Random(seed)
    catalog = random_catalog(rng, CONFIG)
    database = random_database(rng, catalog, CONFIG)
    query = (
        random_exists_query(rng, catalog)
        if rng.random() < 0.5
        else random_query(rng, catalog, CONFIG)
    )
    choice = StrategySelector(database).choose(query)
    assert execute(query, database).same_rows(
        execute(choice.query, database)
    ), choice.explain()
