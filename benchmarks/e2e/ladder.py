"""The traced run: a per-layer ledger measured from outside ``src/``.

For a seed-chosen sample of operations the harness replays each
statement *up a ladder* of the layers' public functions — ``tokenize``
inside ``parse`` inside ``run_with_options`` inside
``Connection.execute`` … — and wraps every call in a span
``{name, start_ns, end_ns, parent, op_id}``.  Rungs are separate calls,
so a child's interval does not lie inside its parent's; ``parent`` says
which rung *contains that work* when the statement runs through the
door.  A rung's **self time** is its duration minus its children's:
what that layer costs beyond the layers it calls.  Whatever the door
costs beyond rungs called once each (today: the second and third parse
of the same text, option merging) lands in ``api.run_self_us`` /
``api.execute_self_us``.

Rungs are imported from their home modules and called with the fewest
arguments that work.  A rung whose import or call fails is reported as
``null`` with the reason; the run goes on.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import random
import statistics
import time
import urllib.parse
from typing import Any, Callable

from harness import (
    CLASS_INDEX,
    Bench,
    Door,
    Recorder,
    Samples,
    build_database,
    door_diagnostics,
    end_to_end,
    ledger_value,
    merge,
    run_ops,
)
from oracle import fingerprint
from workloads import (
    READ,
    STATEMENT_CLASSES,
    TEMPLATES,
    WRITE_AUTOCOMMIT,
    WRITE_BATCH_ROWS,
    WRITE_BATCHES,
    Op,
)

LADDER_SAMPLE = 300
DML_SAMPLE = 100
CONNECT_SAMPLE = 50
REPEAT_BELOW_NS = 20_000_000

HTTP_CLASSES = (
    "key_lookup", "filter_scan", "key_join", "big_result", "insert_autocommit",
)
CLUSTER_ROUTES = {"key_lookup": "point", "filter_scan": "scatter", "key_join": "forward"}

# name, unit, better.  BENCHMARK.json's per_layer list is exactly this
# table (``run.py --selfcheck`` compares them).
PER_LAYER: list[tuple[str, str, str]] = [
    ("sql.lex_us", "us", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.print_us", "us", "lower"),
    ("core.uniqueness_us", "us", "lower"),
    ("core.rewrite_us", "us", "lower"),
    ("core.rewrites_fired_per_stmt", "count", "higher"),
    ("core.rewrite_gain_ratio", "ratio", "higher"),
    ("engine.plan_key_us", "us", "lower"),
    ("engine.plan_us", "us", "lower"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher"),
    ("engine.execute_us.tuple", "us", "lower"),
    ("engine.execute_us.vectorized", "us", "lower"),
    ("engine.planned_self_us", "us", "lower"),
    ("engine.rows_examined_per_row", "ratio", "lower"),
    ("engine.sort_rows_per_stmt", "count", "lower"),
    ("engine.dml_us", "us", "lower"),
    ("engine.commit_us", "us", "lower"),
    ("engine.insert_growth_ratio", "ratio", "lower"),
    ("engine.read_after_churn_ratio", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.entries", "count", "lower"),
    ("resilience.guarded_self_us", "us", "lower"),
    ("api.run_self_us", "us", "lower"),
    ("api.execute_self_us", "us", "lower"),
    ("api.fetch_us", "us", "lower"),
    ("api.front_door_share", "ratio", "lower"),
    *((f"api.p50_us.{cls}", "us", "lower") for cls in STATEMENT_CLASSES),
    ("service.submit_self_us", "us", "lower"),
    ("net.encode_us", "us", "lower"),
    ("net.decode_us", "us", "lower"),
    ("net.bytes_per_row", "bytes/row", "lower"),
    ("net.connect_us", "us", "lower"),
    ("net.roundtrip_self_us", "us", "lower"),
    *((f"net.p50_us.{cls}", "us", "lower") for cls in HTTP_CLASSES),
    ("cluster.hop_self_us", "us", "lower"),
    ("cluster.fanout_per_stmt", "count", "lower"),
    *((f"cluster.p50_us.{route}", "us", "lower") for route in CLUSTER_ROUTES.values()),
    ("observe.tracing_on_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.ledger_sum_ratio", "ratio", "lower"),
    ("bench.speed_ratio", "ratio", "higher"),
    ("door.p50_raw_us", "us", "lower"),
    ("door.p95_us", "us", "lower"),
    ("door.p99_us", "us", "lower"),
    ("door.drift_ratio", "ratio", "lower"),
]

# Which rung contains a rung's work when the statement runs end to end.
RUNG_PARENT = {
    "sql.tokenize": "sql.parse",
    "sql.parse": "api.run",
    "core.uniqueness": "core.rewrite",
    "core.rewrite": "resilience.guarded",
    "sql.print": "resilience.guarded",
    "engine.plan_key": "engine.planned",
    "engine.plan": "engine.planned",
    "engine.execute.tuple": "engine.planned",
    "engine.execute.vectorized": "engine.planned",
    "engine.planned": "resilience.guarded",
    "resilience.guarded": "api.run",
    "api.run": "api.execute",
    "api.execute": "door",
    "api.fetch": "door",
    "service.submit": "net.roundtrip",
    "net.encode": "net.roundtrip",
    "net.decode": "net.roundtrip",
    "net.roundtrip": "cluster.roundtrip",
}


def _attr(module: str, name: str) -> Callable[[], Any]:
    return lambda: getattr(importlib.import_module(module), name)


# Each rung function's home module; resolved one by one so a module a
# later refactor moves costs one rung, not the run.
RUNG_HOMES = {
    "tokenize": _attr("repro.sql", "tokenize"),
    "parse": _attr("repro.sql", "parse"),
    "to_sql": _attr("repro.sql", "to_sql"),
    "SelectQuery": _attr("repro.sql", "SelectQuery"),
    "test_uniqueness": _attr("repro.core", "test_uniqueness"),
    "Optimizer": _attr("repro.core", "Optimizer"),
    "plan_cache_fingerprint": _attr("repro.engine.planner", "plan_cache_fingerprint"),
    "Planner": _attr("repro.engine", "Planner"),
    "execute_plan": _attr("repro.engine", "execute_plan"),
    "execute_planned": _attr("repro.engine", "execute_planned"),
    "execute_dml": _attr("repro.engine.dml", "execute_dml"),
    "run_guarded": _attr("repro.resilience.guarded", "run_guarded"),
    "run_with_options": _attr("repro.api", "run_with_options"),
    "ExecutionOptions": _attr("repro.options", "ExecutionOptions"),
    "QueryService": _attr("repro.service", "QueryService"),
    "dumps": _attr("repro.net.protocol", "dumps"),
    "query_response": _attr("repro.net.protocol", "query_response"),
    "parse_json": _attr("repro.net.protocol", "parse_json"),
    "parse_query_response": _attr("repro.net.protocol", "parse_query_response"),
}


class Ladder:
    """Span log plus the resolved rung functions."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.repro = bench.repro
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, op_id
        self.ops: list[dict] = []
        self.reasons: dict[str, str] = {}  # rung or function -> why it is missing
        self.fn: dict[str, Any] = {}
        for name, load in RUNG_HOMES.items():
            try:
                self.fn[name] = load()
            except Exception as error:
                self.reasons[name] = f"import failed: {type(error).__name__}: {error}"
        self.mismatches = 0
        self.checked = 0

    # -- one timed call ---------------------------------------------------

    def call(
        self, rung: str, op_id: int, durations: dict, fn: Callable,
        *args: Any, once: bool = False, **kw: Any,
    ) -> Any:
        """Run one rung inside its own span; None if it raised.

        A rung under ``REPEAT_BELOW_NS`` runs twice and the shorter call
        counts: rungs climb inner to outer, so the first, innermost calls
        would otherwise pay for instruction and data caches the outer
        ones then find warm, and self times would come out negative.
        *once* is for rungs with side effects.
        """
        clock = time.perf_counter_ns
        best = None
        for _ in range(1 if once else 2):
            if self.bench.workload.cold:
                self.repro.clear_all_caches()
            try:
                t0 = clock()
                out = fn(*args, **kw)
                t1 = clock()
            except Exception as error:
                self.reasons.setdefault(rung, f"call failed: {type(error).__name__}: {error}")
                return None
            self.spans.append((rung, t0, t1, op_id))
            best = t1 - t0 if best is None else min(best, t1 - t0)
            if best >= REPEAT_BELOW_NS:
                break
        durations[rung] = best
        return out

    def need(self, rung: str, *names: str) -> list | None:
        """The named functions, or None (with the reason kept) if any is missing."""
        for name in names:
            if name not in self.fn:
                self.reasons.setdefault(rung, self.reasons.get(name, f"{name} unavailable"))
                return None
        return [self.fn[name] for name in names]

    # -- climbing ----------------------------------------------------------

    def climb(self, op: Op, env: "Env") -> dict[str, int]:
        """Replay *op* up the ladder; returns rung -> duration (ns)."""
        op_id = len(self.ops)
        self.ops.append({"op_id": op_id, "class": op.cls, "sql": op.sql, "mode": op.mode})
        d: dict[str, int] = {}
        sql, params, mode = op.sql, op.bindings, op.mode
        db = env.database
        catalog = db.catalog
        ast = rewritten = plan = None
        if op.kind == READ:
            # One untimed pass through the door first, so no rung pays for
            # code and data the statement has not touched yet.
            try:
                env.conn.execute(sql, params, engine_mode=mode).fetchall()
            except Exception:
                pass  # the api.execute rung will report it
        if (f := self.need("sql.tokenize", "tokenize")):
            self.call("sql.tokenize", op_id, d, f[0], sql)
        if (f := self.need("sql.parse", "parse")):
            ast = self.call("sql.parse", op_id, d, f[0], sql)
        if op.kind != READ:
            return d  # DML: the statement cannot be replayed rung by rung
        if ast is not None:
            if (f := self.need("core.uniqueness", "test_uniqueness", "SelectQuery")):
                if isinstance(ast, f[1]):
                    self.call("core.uniqueness", op_id, d, f[0], ast, catalog)
            if (f := self.need("core.rewrite", "Optimizer")):
                outcome = self.call(
                    "core.rewrite", op_id, d,
                    lambda: f[0].for_relational(catalog).optimize(ast),
                )
                if outcome is not None:
                    rewritten = outcome.query
                    d["rewrites_fired"] = len(outcome.steps)
        if rewritten is not None:
            if (f := self.need("sql.print", "to_sql")):
                self.call("sql.print", op_id, d, f[0], rewritten)
            if (f := self.need("engine.plan_key", "plan_cache_fingerprint")):
                self.call("engine.plan_key", op_id, d, f[0], rewritten, db)
            if (f := self.need("engine.plan", "Planner")):
                plan = self.call(
                    "engine.plan", op_id, d,
                    lambda: f[0](catalog, database=db).plan(rewritten),
                )
            if plan is not None and (f := self.need("engine.execute", "execute_plan")):
                for engine in ("tuple", "vectorized"):
                    result = self.call(
                        f"engine.execute.{engine}", op_id, d,
                        f[0], plan, db, params=params, engine_mode=engine,
                    )
                    if result is not None:
                        env.agree(self, result.rows)
            if (f := self.need("engine.planned", "execute_planned")):
                result = self.call(
                    "engine.planned", op_id, d,
                    f[0], rewritten, db, params=params, engine_mode=mode,
                )
                if result is not None:
                    env.agree(self, result.rows)
        if ast is not None and (f := self.need("resilience.guarded", "run_guarded")):
            self.call(
                "resilience.guarded", op_id, d,
                f[0], ast, db, params=params, engine_mode=mode,
            )
        options = None
        if (f := self.need("api.run", "run_with_options", "ExecutionOptions")):
            options = f[1](engine_mode=mode)
            self.call("api.run", op_id, d, f[0], sql, db, params=params, options=options)
        clock = time.perf_counter_ns
        t0 = clock()
        cursor = self.call("api.execute", op_id, d, env.conn.execute, sql, params, engine_mode=mode)
        rows = None
        if cursor is not None:  # once: a second fetchall() finds the cursor drained
            rows = self.call("api.fetch", op_id, d, cursor.fetchall, once=True)
        t1 = clock()
        if rows is not None:
            self.spans.append(("door", t0, t1, op_id))
            env.agree(self, rows)
        if env.session is not None and options is not None:
            self.call(
                "service.submit", op_id, d,
                lambda: env.service.submit(env.session, sql, params, options=options).result(),
            )
        if cursor is not None and (f := self.need("net.encode", "dumps", "query_response")):
            raw = self.call("net.encode", op_id, d, lambda: f[0](f[1](cursor.executed)))
            if raw is not None:
                d["bytes"] = len(raw)
                d["rows"] = len(cursor.executed.rows)
                if (g := self.need("net.decode", "parse_query_response", "parse_json")):
                    self.call("net.decode", op_id, d, lambda: g[0](g[1](raw)))
        if env.direct is not None:
            self.call(
                "net.roundtrip", op_id, d,
                lambda: env.direct.execute(sql, params, engine_mode=mode).fetchall(),
            )
        if env.front is not None:
            self.call(
                "cluster.roundtrip", op_id, d,
                lambda: env.front.execute(sql, params, engine_mode=mode).fetchall(),
            )
        return d

    # -- the span file -------------------------------------------------------

    def write(self, path: str, door: Recorder) -> None:
        spans = []
        ops = list(self.ops)
        last: dict[tuple[int, str], int] = {}
        # Parents come after children in ladder order, so link in reverse.
        for name, t0, t1, op_id in self.spans:
            last[(op_id, name)] = len(spans)
            spans.append({
                "id": len(spans), "name": name, "start_ns": t0, "end_ns": t1,
                "parent": None, "op_id": op_id,
            })
        for span in spans:
            parent = RUNG_PARENT.get(span["name"])
            if parent is not None:
                span["parent"] = last.get((span["op_id"], parent))
        base = len(ops)
        for i, (t0, t_fetch, t1, cls) in enumerate(zip(door.start, door.fetch, door.end, door.cls)):
            op_id = base + i
            ops.append({"op_id": op_id, "class": STATEMENT_CLASSES[cls]})
            root = len(spans)
            spans.append({"id": root, "name": "door", "start_ns": t0, "end_ns": t1,
                          "parent": None, "op_id": op_id})
            spans.append({"id": root + 1, "name": "api.execute", "start_ns": t0,
                          "end_ns": t_fetch, "parent": root, "op_id": op_id})
            spans.append({"id": root + 2, "name": "api.fetch", "start_ns": t_fetch,
                          "end_ns": t1, "parent": root, "op_id": op_id})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": self.bench.workload.name, "seed": self.bench.seed,
                 "ops": ops, "spans": spans},
                handle,
            )


class Env:
    """What the rungs run against: a local database and its connection,
    an in-process QueryService, and — on wire workloads — connections
    straight to a worker and to the front door."""

    def __init__(self, ladder: Ladder, bench: Bench) -> None:
        repro = bench.repro
        workload = bench.workload
        if workload.door == "local" and not workload.phased:
            self.database = bench.database
        else:
            self.database = build_database(workload, bench.data)
        self.conn = repro.connect(self.database)
        if workload.phased:
            # LEDGER as the insert phases leave it, so sampled reads hit.
            loaded = WRITE_AUTOCOMMIT + WRITE_BATCHES * WRITE_BATCH_ROWS
            run_ops(Door(self.conn), bench.steps[0], Recorder(), count=loaded)
        self.service = self.session = None
        if (f := ladder.need("service.submit", "QueryService")):
            try:
                self.service = f[0](workers=1)
                self.session = self.service.session(self.database)
            except Exception as error:
                ladder.reasons["service.submit"] = f"{type(error).__name__}: {error}"
        self.direct = self.front = None
        self.owns_direct = False
        if bench.server is not None:
            if workload.door == "cluster":
                self.front = bench.doors[0].conn
                if bench.server.worker_urls:
                    self.direct = repro.connect(bench.server.worker_urls[0])
                    self.owns_direct = True
                else:
                    ladder.reasons["net.roundtrip"] = "worker URLs unavailable"
            else:
                self.direct = bench.doors[0].conn
        self.rows: tuple[int, int] | None = None

    def agree(self, ladder: Ladder, rows: Any) -> None:
        """Every rung of one operation that returns rows must return the
        same multiset; a rung that disagrees is a correctness failure."""
        mine = fingerprint(list(rows))
        ladder.checked += 1
        if self.rows is None:
            self.rows = mine
        elif mine != self.rows:
            ladder.mismatches += 1

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        if self.owns_direct:
            self.direct.close()
        self.conn.close()


# ----------------------------------------------------------------------
# helpers


def _us(values: list[int]) -> float | None:
    return statistics.median(values) / 1000.0 if values else None


def _http_get(url: str, path: str) -> str:
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        connection.request("GET", path)
        return connection.getresponse().read().decode("utf-8", "replace")
    finally:
        connection.close()


def _scrape(urls: list[str]) -> dict[str, float]:
    """Sum Prometheus samples by metric name over *urls*' ``/metrics``."""
    totals: dict[str, float] = {}
    for url in urls:
        for line in _http_get(url, "/metrics").splitlines():
            if line.startswith("#") or " " not in line:
                continue
            head, value = line.rsplit(" ", 1)
            name = head.split("{", 1)[0]
            try:
                totals[name] = totals.get(name, 0.0) + float(value)
            except ValueError:
                continue
    return totals


def _cache_totals(bench: Bench) -> dict[str, float]:
    """hits / misses / entries summed over every cache, read where the
    caches live: this process, or the server processes' ``/metrics``."""
    if bench.server is None:
        stats = bench.repro.cache_stats().values()
        return {key: float(sum(s[key] for s in stats)) for key in ("hits", "misses", "entries")}
    scraped = _scrape(bench.server.worker_urls or [bench.server.url])
    return {
        "hits": scraped.get("repro_cache_hits_total", 0.0),
        "misses": scraped.get("repro_cache_misses_total", 0.0),
        "entries": scraped.get("repro_cache_entries", 0.0),
    }


def _class_p50(samples: Samples) -> dict[str, float]:
    by_class: dict[int, list[float]] = {}
    for cls, latency in zip(samples.cls, samples.latency_us):
        by_class.setdefault(cls, []).append(latency)
    return {STATEMENT_CLASSES[c]: statistics.median(v) for c, v in by_class.items()}


# ----------------------------------------------------------------------
# the traced run


def traced_run(
    bench: Bench, seconds: float, out_dir: str
) -> tuple[list[Recorder], list[Recorder], dict]:
    """Untraced door pass, traced door pass, the ladder, then the
    single-purpose measurements.  Returns the untraced pass's recorders,
    the other recorders (they count towards attempted/failed) and
    ``{metric: {"value", "unit", "reason"}}``.

    Shares of ``seconds``: 0.25 untraced door, 0.35 traced door, up to
    0.6 on the ladder (it stops early once the sample is climbed), up
    to 0.15 each on the rewrite-gain and tracing arms.
    """
    workload = bench.workload
    ladder = Ladder(bench)
    values: dict[str, float | None] = {}
    why: dict[str, str] = {}

    def attempt(names: tuple[str, ...], compute: Callable[..., dict], *args: Any) -> None:
        """One measurement; if it raises, its metrics are null with the reason."""
        try:
            values.update(compute(*args))
        except Exception as error:
            why.update(dict.fromkeys(names, f"{type(error).__name__}: {error}"))

    def snapshot(read: Callable[..., dict], *args: Any) -> dict | None:
        try:
            return read(*args)
        except Exception:
            return None

    # 1-2. the door, spans off then on -------------------------------------
    plain = bench.timed(seconds * 0.25)
    caches_before = snapshot(_cache_totals, bench)
    routes_before = snapshot(_scrape, [bench.server.url]) if workload.door == "cluster" else None
    traced = bench.timed(seconds * 0.35, traced=True)
    attempt(("cache.hit_ratio", "cache.entries"), _cache_metrics, caches_before, bench)
    if workload.door == "cluster":
        attempt(("cluster.fanout_per_stmt",), _fanout, routes_before, bench)
    plain_samples, traced_samples = merge(plain), merge(traced)
    values["bench.trace_overhead_ratio"] = (
        end_to_end(traced_samples)["p50_us"]["value"]
        / end_to_end(plain_samples)["p50_us"]["value"]
    )
    values.update(door_diagnostics(plain_samples))
    for cls, p50 in _class_p50(traced_samples).items():
        if workload.door == "local":
            values[f"api.p50_us.{cls}"] = p50
        elif workload.door == "http":
            values[f"net.p50_us.{cls}"] = p50
        else:
            values[f"cluster.p50_us.{CLUSTER_ROUTES[cls]}"] = p50
    values.update(_counter_metrics(traced))
    if workload.phased:
        values.update(_write_phase_metrics(bench, traced[0]))

    # 3. the ladder -----------------------------------------------------------
    env = Env(ladder, bench)
    try:
        rng = random.Random(bench.seed * 7919 + 17)
        pool = [op for ops in bench.ops for op in ops]
        reads = [op for op in pool if op.kind == READ]
        writes = [op for op in pool if op.kind != READ]
        sample = rng.sample(reads, min(LADDER_SAMPLE, len(reads)))
        sample += rng.sample(writes, min(DML_SAMPLE, len(writes)))
        rng.shuffle(sample)  # so a ladder cut short by its budget keeps the mix
        stop = time.perf_counter() + seconds * 0.6
        climbed: list[tuple[Op, dict]] = []
        for op in sample:
            env.rows = None
            climbed.append((op, ladder.climb(op, env)))
            if time.perf_counter() > stop:
                break
        values.update(_ladder_metrics(climbed, workload.cold))
        if workload.door == "local":  # on the wire the ladder's door is not the real one
            values.update(_ledger_sum_ratio(climbed, plain_samples))

        # 4. single-purpose measurements ---------------------------------------
        budget_ns = int(seconds * 0.15e9)
        attempt(("core.rewrite_gain_ratio",), _rewrite_gain, env, ladder, climbed, budget_ns)
        if workload.door == "local":
            attempt(("observe.tracing_on_ratio",), _tracing_ratio, bench, env, climbed, budget_ns)
        if workload.ledger:
            attempt(("engine.dml_us", "engine.commit_us"), _dml_rungs, ladder, env)
        if bench.server is not None:
            attempt(("net.connect_us",), _connect, bench.server.url)
    finally:
        env.close()
    ladder.write(os.path.join(out_dir, f"trace_{workload.name}.json"), traced[0])

    # A rung disagreeing with the door's rows is a correctness failure.
    check = Recorder(attempted=ladder.checked, failed=ladder.mismatches)
    if ladder.mismatches:
        check.errors.append(f"{ladder.mismatches} ladder rung results differ from the door's")

    metrics = {}
    for name, unit, _ in PER_LAYER:
        value = values.get(name)
        entry: dict[str, Any] = {"value": value, "unit": unit}
        if value is None:
            entry["reason"] = why.get(name) or _reason(name, ladder, workload)
        metrics[name] = entry
    return plain, [*traced, check], metrics


def _reason(name: str, ladder: Ladder, workload: Any) -> str:
    for rung, reason in ladder.reasons.items():
        if rung.split(".")[0] == name.split(".")[0]:
            return f"{rung}: {reason}"
    return f"not applicable to {workload.name}"


def _cache_metrics(before: dict | None, bench: Bench) -> dict:
    if before is None:
        raise RuntimeError("cache counters could not be read")
    after = _cache_totals(bench)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else None,
        "cache.entries": after["entries"],
    }


def _fanout(before: dict | None, bench: Bench) -> dict:
    if before is None:
        raise RuntimeError("front-end /metrics could not be read")
    after = _scrape([bench.server.url])

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    requests = delta("repro_cluster_requests_total")
    return {
        "cluster.fanout_per_stmt": (
            delta("repro_cluster_shard_requests_total") / requests if requests else None
        )
    }


def _counter_metrics(recorders: list[Recorder]) -> dict:
    """Exact counts from ``Cursor.executed.stats`` of the traced pass."""
    total: dict[str, int] = {}
    statements = 0
    for rec in recorders:
        for stats in rec.stats:
            if stats:
                statements += 1
                for key, value in stats.items():
                    total[key] = total.get(key, 0) + value
    lookups = total.get("plan_cache_hits", 0) + total.get("plan_cache_misses", 0)
    examined = total.get("rows_scanned", 0) + total.get("index_rows", 0)
    return {
        "engine.plan_cache_hit_ratio": (
            total.get("plan_cache_hits", 0) / lookups if lookups else None
        ),
        "engine.rows_examined_per_row": (
            examined / total["rows_output"] if total.get("rows_output") else None
        ),
        "engine.sort_rows_per_stmt": (
            total.get("sort_rows", 0) / statements if statements else None
        ),
    }


def _write_phase_metrics(bench: Bench, rec: Recorder) -> dict:
    """write_local: how INSERT cost grows with the table, and what the
    update/delete churn does to a LEDGER key lookup."""
    ops = bench.ops[0]
    tenth = WRITE_AUTOCOMMIT // 10
    lookup = [
        i for i, op in enumerate(ops)
        if op.sql == TEMPLATES["key_lookup.ledger"].sql
    ]
    quarter = len(lookup) // 4
    first_ins, last_ins, early, late = [], [], [], []
    begin = 0
    for end in rec.rounds:
        latency = [rec.end[i] - rec.start[i] for i in range(begin, end)]
        first_ins += latency[:tenth]
        last_ins += latency[WRITE_AUTOCOMMIT - tenth:WRITE_AUTOCOMMIT]
        early += [latency[i] for i in lookup[:quarter]]
        late += [latency[i] for i in lookup[-quarter:]]
        begin = end
    return {
        "engine.insert_growth_ratio": statistics.median(last_ins) / statistics.median(first_ins),
        "engine.read_after_churn_ratio": statistics.median(late) / statistics.median(early),
    }


def _door_ns(d: dict) -> int:
    return d.get("api.execute", 0) + d.get("api.fetch", 0)


# rung -> the metric reporting its whole duration
RUNG_METRIC = {
    "sql.tokenize": "sql.lex_us",
    "sql.parse": "sql.parse_us",
    "sql.print": "sql.print_us",
    "core.uniqueness": "core.uniqueness_us",
    "core.rewrite": "core.rewrite_us",
    "engine.plan_key": "engine.plan_key_us",
    "engine.plan": "engine.plan_us",
    "engine.execute.tuple": "engine.execute_us.tuple",
    "engine.execute.vectorized": "engine.execute_us.vectorized",
    "api.fetch": "api.fetch_us",
    "net.encode": "net.encode_us",
    "net.decode": "net.decode_us",
}

# metric -> (rung, the rungs nested in it); "engine.execute" stands for
# the engine the operation ran on, "engine.plan" counts only when cold.
SELF_TIMES = {
    "engine.planned_self_us": ("engine.planned", ("engine.plan_key", "engine.execute", "engine.plan")),
    "resilience.guarded_self_us": ("resilience.guarded", ("core.rewrite", "engine.planned", "sql.print")),
    "api.run_self_us": ("api.run", ("sql.parse", "resilience.guarded")),
    "api.execute_self_us": ("api.execute", ("api.run",)),
    "service.submit_self_us": ("service.submit", ("api.run",)),
    "net.roundtrip_self_us": ("net.roundtrip", ("service.submit", "net.encode", "net.decode")),
    "cluster.hop_self_us": ("cluster.roundtrip", ("net.roundtrip",)),
}


def _ladder_metrics(climbed: list[tuple[Op, dict]], cold: bool) -> dict:
    """Medians over the sampled operations; self = rung minus children."""
    ns: dict[str, list[int]] = {}  # metric -> per-operation durations
    shares: list[float] = []
    fired: list[int] = []
    total_bytes = total_rows = 0
    for op, d in climbed:
        for rung, metric in RUNG_METRIC.items():
            if rung in d:
                ns.setdefault(metric, []).append(d[rung])
        if op.kind != READ:
            continue
        executed = d.get(f"engine.execute.{op.mode or 'tuple'}")
        if executed is not None:
            d["engine.execute"] = executed
        for metric, (rung, children) in SELF_TIMES.items():
            nested = [c for c in children if c != "engine.plan" or cold]
            if rung in d and all(child in d for child in nested):
                ns.setdefault(metric, []).append(d[rung] - sum(d[c] for c in nested))
        if executed is not None and "api.fetch" in d:
            shares.append(1.0 - executed / _door_ns(d))
        if "rewrites_fired" in d:
            fired.append(d["rewrites_fired"])
        total_bytes += d.get("bytes", 0)
        total_rows += d.get("rows", 0)
    out: dict[str, float | None] = {metric: _us(column) for metric, column in ns.items()}
    out["api.front_door_share"] = statistics.median(shares) if shares else None
    # a mean, not a median: the count repeats exactly, run to run
    out["core.rewrites_fired_per_stmt"] = statistics.fmean(fired) if fired else None
    out["net.bytes_per_row"] = total_bytes / total_rows if total_rows else None
    return out


def _ledger_sum_ratio(climbed: list[tuple[Op, dict]], plain: Samples) -> dict:
    """Mean door time of the laddered reads over the mean latency the
    untraced pass saw for reads.  The rungs' self times add up to the
    ladder's door time by construction (and means add, where medians of
    a mixed-cost workload do not), so this says how much of the real
    door's cost the ledger accounts for."""
    ladder_door = [
        _door_ns(d) for op, d in climbed if op.kind == READ and "api.fetch" in d
    ]
    read_classes = {
        CLASS_INDEX[t.cls] for t in TEMPLATES.values() if t.kind == READ
    }
    real_door = [
        latency for cls, latency in zip(plain.cls, plain.latency_us)
        if cls in read_classes
    ]
    if not ladder_door or not real_door:
        return {}
    return {
        "bench.ledger_sum_ratio": (
            statistics.fmean(ladder_door) / 1000.0 / statistics.fmean(real_door)
        )
    }


def _rewrite_gain(env: Env, ladder: Ladder, climbed: list[tuple[Op, dict]], budget_ns: int) -> dict:
    """Door time with ``optimize=False`` over door time with it on, for
    sampled statements a rewrite fired on; the two answers must agree.
    A ratio of summed times: what the rewrites save on the statements
    they touch, in this workload's mix."""
    clock = time.perf_counter_ns
    on = off = 0
    for op, d in climbed:
        if not d.get("rewrites_fired"):
            continue
        budget_ns -= 12 * _door_ns(d)  # 4 + 4 calls, the unrewritten ones slower
        if budget_ns < 0 and on:
            break
        sql, params, mode = op.sql, op.bindings, op.mode
        timings: dict[bool, list[int]] = {True: [], False: []}
        answers = {}
        for optimize in (True, False, False, True, True, False, False, True):
            t0 = clock()
            rows = env.conn.execute(sql, params, engine_mode=mode, optimize=optimize).fetchall()
            timings[optimize].append(clock() - t0)
            answers[optimize] = fingerprint(rows)
        ladder.checked += 1
        if answers[True] != answers[False]:
            ladder.mismatches += 1
        # drop each arm's first call: it may plan
        on += statistics.median(timings[True][1:])
        off += statistics.median(timings[False][1:])
    return {"core.rewrite_gain_ratio": off / on} if on else {}


def _tracing_ratio(bench: Bench, env: Env, climbed: list[tuple[Op, dict]], budget_ns: int) -> dict:
    """Throughput with ``repro.set_tracing(True)`` over throughput with
    it off, same statements, arms interleaved."""
    repro = bench.repro
    reads = []
    for op, d in climbed:
        if op.kind == READ and _door_ns(d):
            budget_ns -= 4 * _door_ns(d)
            if budget_ns < 0 and reads:
                break
            reads.append(op)
    if not reads:
        return {}
    clock = time.perf_counter_ns
    spent = {False: 0, True: 0}
    try:
        for enabled in (False, True, True, False):
            repro.set_tracing(enabled)
            for op in reads:
                t0 = clock()
                env.conn.execute(op.sql, op.bindings, engine_mode=op.mode).fetchall()
                spent[enabled] += clock() - t0
                if enabled:
                    repro.TRACER.clear()  # as a caller reading each trace would
    finally:
        repro.set_tracing(False)
        repro.TRACER.clear()
    return {"observe.tracing_on_ratio": spent[False] / spent[True]}


def _dml_rungs(ladder: Ladder, env: Env) -> dict:
    """INSERT, UPDATE, DELETE of scratch LEDGER keys through
    ``execute_dml`` in an explicit transaction, commit timed apart."""
    f = ladder.need("engine.dml", "execute_dml", "parse")
    if f is None:
        return {}
    execute_dml, parse = f
    statements = [
        parse(TEMPLATES[name].sql)
        for name in ("insert_autocommit", "update_by_key", "delete_by_key")
    ]
    op_id = len(ladder.ops)
    ladder.ops.append({"op_id": op_id, "class": "dml_rungs"})
    dml: list[int] = []
    commit: list[int] = []
    d: dict[str, int] = {}
    for i in range(DML_SAMPLE):
        key = 10**8 + i
        params = {"K": key, "V": ledger_value(key)}
        for statement in statements:
            txn = env.database.begin()
            ladder.call(
                "engine.dml", op_id, d, execute_dml, statement, txn,
                params=params, once=True,
            )
            ladder.call("engine.commit", op_id, d, txn.commit, once=True)
            dml.append(d["engine.dml"])
            commit.append(d["engine.commit"])
    return {"engine.dml_us": _us(dml), "engine.commit_us": _us(commit)}


def _connect(url: str) -> dict:
    """TCP connect + ``GET /healthz``: what a connection per request costs."""
    clock = time.perf_counter_ns
    spent = []
    for _ in range(CONNECT_SAMPLE):
        t0 = clock()
        _http_get(url, "/healthz")
        spent.append(clock() - t0)
    return {"net.connect_us": _us(spent)}
