"""Workload generators: determinism, validity, backend consistency."""

import random

import pytest

from repro.core import test_uniqueness
from tests.engine.reference_executor import execute
from repro.workloads import (
    PAPER_QUERIES,
    GeneratorConfig,
    SupplierScale,
    build_catalog,
    build_database,
    build_ims_database,
    build_object_store,
    generate,
    paper_query,
    random_catalog,
    random_database,
    random_query,
)


class TestSupplierGenerator:
    def test_deterministic_for_same_seed(self):
        a = generate(SupplierScale(suppliers=8, seed=7))
        b = generate(SupplierScale(suppliers=8, seed=7))
        assert a.suppliers == b.suppliers
        assert a.parts == b.parts

    def test_different_seed_differs(self):
        a = generate(SupplierScale(suppliers=8, seed=7))
        b = generate(SupplierScale(suppliers=8, seed=8))
        assert a.suppliers != b.suppliers

    def test_scale_respected(self):
        data = generate(
            SupplierScale(suppliers=5, parts_per_supplier=3, agents_per_supplier=2)
        )
        assert len(data.suppliers) == 5
        assert len(data.parts) == 15
        assert len(data.agents) == 10

    def test_generated_data_satisfies_all_constraints(self):
        # Loading into the engine enforces keys, NOT NULL, and CHECKs.
        database = build_database(generate(SupplierScale(suppliers=40)))
        assert database.row_counts()["SUPPLIER"] == 40

    def test_name_collisions_exist(self):
        data = generate(SupplierScale(suppliers=40, name_collision_rate=0.8))
        names = [s.sname for s in data.suppliers]
        assert len(set(names)) < len(names)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            SupplierScale(suppliers=0)
        with pytest.raises(ValueError):
            SupplierScale(name_collision_rate=2.0)

    def test_large_scale_relaxes_sno_check(self):
        database = build_database(generate(SupplierScale(suppliers=600)))
        assert database.row_counts()["SUPPLIER"] == 600


class TestBackendConsistency:
    def test_same_counts_across_backends(self):
        data = generate(SupplierScale(suppliers=6, parts_per_supplier=3))
        rel = build_database(data)
        ims = build_ims_database(data)
        store = build_object_store(data)
        assert rel.row_counts()["PARTS"] == ims.segment_count("PARTS")
        assert rel.row_counts()["PARTS"] == store.extent_size("PARTS")
        assert rel.row_counts()["AGENTS"] == ims.segment_count("AGENTS")

    def test_ims_children_attached_to_right_parent(self):
        data = generate(SupplierScale(suppliers=4, parts_per_supplier=2))
        ims = build_ims_database(data)
        for root in ims.roots:
            for part in root.twins("PARTS"):
                matching = [
                    p for p in data.parts
                    if p.sno == root.key and p.pno == part.key
                ]
                assert len(matching) == 1


class TestPaperQueryCatalog:
    def test_lookup(self):
        assert paper_query("1").distinct_unnecessary is True
        with pytest.raises(KeyError):
            paper_query("99")

    def test_every_query_parses_and_runs(self, small_db):
        for query in PAPER_QUERIES:
            result = execute(query.sql, small_db, params=query.params)
            assert result.columns  # ran to completion

    def test_stated_verdicts_hold(self, small_db):
        for query in PAPER_QUERIES:
            if query.distinct_unnecessary is None:
                continue
            verdict = test_uniqueness(query.sql, small_db.catalog)
            assert verdict.unique == query.distinct_unnecessary, query.example


class TestRandomGenerators:
    def test_random_catalog_has_keys(self):
        rng = random.Random(1)
        for _ in range(10):
            catalog = random_catalog(rng)
            assert all(schema.has_key() for schema in catalog)

    def test_random_database_is_valid(self):
        rng = random.Random(2)
        catalog = random_catalog(rng)
        database = random_database(rng, catalog)
        # validity was enforced on insert; just confirm rows landed
        assert sum(database.row_counts().values()) >= 0

    def test_random_query_executes(self):
        rng = random.Random(3)
        for _ in range(20):
            catalog = random_catalog(rng)
            database = random_database(rng, catalog)
            query = random_query(rng, catalog)
            execute(query, database)  # must not raise

    def test_random_query_is_distinct(self):
        rng = random.Random(4)
        catalog = random_catalog(rng)
        assert random_query(rng, catalog).distinct

    def test_config_bounds(self):
        rng = random.Random(5)
        config = GeneratorConfig(max_tables=1, max_rows=2)
        catalog = random_catalog(rng, config)
        assert len(catalog) == 1
        database = random_database(rng, catalog, config)
        assert all(count <= 2 for count in database.row_counts().values())
