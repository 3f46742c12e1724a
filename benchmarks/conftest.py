"""Shared benchmark fixtures: scaled instances of the paper's schema.

Every run writes its report tables to ``benchmarks/out/BENCH_<slug>.json``
(ignored by git: a run's timings are outputs, not baselines)."""

from __future__ import annotations

import os

import pytest

from repro.workloads import (
    SupplierScale,
    build_database,
    build_ims_database,
    build_object_store,
    generate,
)

#: Default benchmark scale: 300 suppliers x 20 parts = 6000 parts.
BENCH_SCALE = SupplierScale(
    suppliers=300, parts_per_supplier=20, agents_per_supplier=3
)


@pytest.fixture(scope="session")
def bench_data():
    return generate(BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_db(bench_data):
    return build_database(bench_data)


@pytest.fixture(scope="session")
def bench_ims(bench_data):
    return build_ims_database(bench_data)


@pytest.fixture(scope="session")
def bench_store(bench_data):
    return build_object_store(bench_data)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every experiment report and write its BENCH_<slug>.json
    file under ``benchmarks/out/``."""
    from repro.bench import RENDERED_REPORTS, write_reports

    if not RENDERED_REPORTS:
        return
    terminalreporter.section("experiment reports (paper claims)")
    for rendered in RENDERED_REPORTS:
        terminalreporter.write_line("")
        for line in rendered.splitlines():
            terminalreporter.write_line(line)
    out = os.path.join(str(config.rootpath), "benchmarks", "out")
    for path in write_reports(out):
        terminalreporter.write_line(f"wrote {path}")
