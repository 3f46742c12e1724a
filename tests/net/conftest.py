"""Shared helpers for the network-layer tests: raw HTTP access (no
client-side retry or decoding), server factories over the shared test
databases — a ``QueryServer``, or, for tests parametrized over
:data:`SERVERS`, a one-shard cluster front end — and a guard that fails
any test during which asyncio logged an error."""

from __future__ import annotations

import gc
import json
import logging
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterFrontend,
    WorkerConfig,
    WorkerSource,
)
from repro.net.server import QueryServer

from ..conftest import TINY_SCRIPT

#: Both servers, as ids for indirect parametrization of ``server`` and
#: ``make_server``; the front end serves the same instance from one worker.
SERVERS = ["QueryServer", "ClusterFrontend"]


def raw_post(url: str, path: str, payload, timeout: float = 10.0, headers=None):
    """One raw POST; returns ``(status, headers, decoded_body)`` without
    retrying or raising on error statuses — tests inspect envelopes.
    *headers* adds/overrides request headers (e.g. ``X-Deadline-Ms``)."""
    data = (
        payload
        if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    request = urllib.request.Request(
        url + path,
        data=data,
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def raw_get(url: str, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _make(kind: str, tiny_db, workers: int):
    if kind == "ClusterFrontend":
        coordinator = ClusterCoordinator(
            WorkerSource.from_script(TINY_SCRIPT),
            shards=1,
            config=WorkerConfig(threads=workers),
        )
        return ClusterFrontend(coordinator, owns_coordinator=True).start()
    return QueryServer(tiny_db, workers=workers)


@pytest.fixture()
def server(request, tiny_db):
    """A two-worker server over the hand-written instance."""
    with _make(getattr(request, "param", "QueryServer"), tiny_db, 2) as srv:
        yield srv


@pytest.fixture()
def make_server(request, tiny_db):
    """A factory for one-worker servers that the test drains itself;
    teardown drains each again (drain is idempotent)."""
    made = []

    def make():
        made.append(_make(request.param, tiny_db, 1))
        return made[-1]

    yield make
    for srv in made:
        srv.drain()


class _ErrorRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_errors_fail_the_test():
    """Both servers run on asyncio, which reports what it cannot raise
    (a task's exception nobody retrieved, a callback that failed) only
    as an ERROR log line.  Any such line fails the test."""
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()  # an unretrieved task exception is logged when freed
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(handler.format(record) for record in handler.records)
        )
