"""Shared fixtures: the paper's schema and a small populated instance."""

from __future__ import annotations

import pytest

from repro import Catalog, Database
from repro.workloads import SupplierScale, build_database, generate


PAPER_DDL = """
CREATE TABLE SUPPLIER (
  SNO INT, SNAME VARCHAR(30), SCITY VARCHAR(20), BUDGET INT, STATUS VARCHAR(10),
  PRIMARY KEY (SNO),
  CHECK (SNO BETWEEN 1 AND 499),
  CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
  CHECK (BUDGET <> 0 OR STATUS = 'Inactive'));

CREATE TABLE PARTS (
  SNO INT, PNO INT, PNAME VARCHAR(30), OEM-PNO INT, COLOR VARCHAR(10),
  PRIMARY KEY (SNO, PNO),
  UNIQUE (OEM-PNO),
  CHECK (SNO BETWEEN 1 AND 499),
  FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO));

CREATE TABLE AGENTS (
  SNO INT, ANO INT, ANAME VARCHAR(30), ACITY VARCHAR(20),
  PRIMARY KEY (ANO),
  CHECK (SNO BETWEEN 1 AND 499),
  FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO));
"""


@pytest.fixture(scope="session")
def paper_catalog() -> Catalog:
    """The Figure 1 schema, CHECK constraints included."""
    return Catalog.from_ddl(PAPER_DDL)


@pytest.fixture(scope="session")
def small_db() -> Database:
    """A small deterministic supplier instance (shared, read-only)."""
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4, agents_per_supplier=2))
    )


#: The ``tiny_db`` instance as a script, for worker processes to rebuild.
TINY_SCRIPT = (
    PAPER_DDL
    + """
INSERT INTO SUPPLIER VALUES
  (1, 'Acme', 'Toronto', 100, 'Active'),
  (2, 'Baker', 'Chicago', 50, 'Active'),
  (3, 'Acme', 'Toronto', 0, 'Inactive'),
  (4, 'Delta', 'New York', 75, 'Active');
INSERT INTO PARTS VALUES
  (1, 10, 'bolt', 100, 'RED'),
  (1, 11, 'nut', 101, 'BLUE'),
  (2, 10, 'bolt', 102, 'RED'),
  (3, 12, 'cam', NULL, 'RED'),
  (4, 13, 'rod', 104, 'GREEN');
INSERT INTO AGENTS VALUES
  (1, 100, 'ann', 'Ottawa'),
  (1, 101, 'bob', 'Hull'),
  (2, 102, 'cid', 'Toronto'),
  (3, 103, 'dot', 'Ottawa');
"""
)


@pytest.fixture()
def tiny_db() -> Database:
    """A hand-written instance with known rows (fresh per test)."""
    return Database.from_script(TINY_SCRIPT)
