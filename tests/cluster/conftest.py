"""Cluster test fixtures.

Spawning a worker process costs ~0.5s, so the multi-process fixtures
are module-scoped: one fleet serves every test in a module.  Tests
that mutate fleet state (kill a worker, open sessions) use their own
function-scoped fixtures or clean up after themselves.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterFrontend,
    WorkerConfig,
    WorkerSource,
)
from repro.workloads.supplier import build_database

# An exception escaping a front-end thread fails the test here too.
from ..net.conftest import serving_thread_errors_fail_the_test  # noqa: F401

#: The workers rebuild the replica from this deterministic factory —
#: the same one the tests build locally for expected results.
FACTORY = "repro.workloads.supplier:build_database"


def post_json(url: str, path: str, payload, timeout: float = 30.0, headers=None):
    """One raw POST; returns (status, headers, parsed_body) without
    raising on error statuses."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def get_json(url: str, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def get_text(url: str, path: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.read().decode("utf-8")


@pytest.fixture(scope="module")
def local_db():
    """The same replica every worker builds, for expected results."""
    return build_database()


@pytest.fixture(scope="module")
def cluster():
    """A started 3-shard cluster (front end owns the fleet)."""
    coordinator = ClusterCoordinator(
        WorkerSource.from_factory(FACTORY),
        shards=3,
        config=WorkerConfig(threads=2, queue_depth=32),
    )
    frontend = ClusterFrontend(coordinator, owns_coordinator=True)
    with frontend:
        yield frontend
