"""Set-up, the closed loop, and the end-to-end metrics.

The end-to-end path touches the system only through its four front
doors: ``repro.connect(database | url)`` and the ``Connection`` /
``Cursor`` methods, ``repro.net.server.QueryServer`` and
``repro.cluster.serve_cluster`` (both inside the ``serve`` role, a
separate process).  Data comes from ``repro.workloads``.  Nothing here
sleeps, injects faults, or reaches into a module the planned refactors
(ROADMAP items 2-3) may move.

Measurement rules, fixed here so every later PR measures the same way:

* closed loop — a caller sends its next statement only when the last
  one's rows are in hand; 1 caller in-process, 2 connections (2 threads
  of this one process) on the wire, never more than ``nproc``;
* an *operation* is one ``execute`` + ``fetchall``, or one parameter set
  of an ``executemany`` (the batch's time, commit included, split evenly);
* every operation's answer is checked against the sqlite oracle
  (row count + checksum); a mismatch or an exception is a failure;
* the garbage collector stays on, as users run it;
* every 20 ms a caller runs a fixed piece of interpreter work, the
  *calibration chunk*, with its own clock paused.  This machine switches
  between speeds 28 % apart every few seconds; the chunk's time says
  which one a window ran at, and ``p50_us`` / ``stmts_per_s`` are
  reported at the reference speed ``REFERENCE_CHUNK_US`` (README,
  "Steadiness").
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from oracle import Oracle, fingerprint, sorted_multiset
from workloads import (
    INSERT,
    LEDGER_DDL,
    READ,
    STATEMENT_CLASSES,
    Op,
    Workload,
    build_ops,
)

HERE = os.path.dirname(os.path.abspath(__file__))
WINDOWS = 20
CHUNK_LOOPS = 4000
CHUNK_EVERY_NS = 20_000_000
REFERENCE_CHUNK_US = 430.0  # the chunk's time in this machine's usual state; results are quoted at it
CLUSTER_FACTORY = "repro.workloads.supplier:build_database"
CLASS_INDEX = {cls: i for i, cls in enumerate(STATEMENT_CLASSES)}

# Step kinds of a prepared operation.
_READ, _DML, _SEQ_INSERT = 0, 1, 2


def ledger_value(key: int) -> int:
    """The V a harness-sequenced LEDGER insert stores under key K."""
    return (key * 2654435761) % 1000003


# ----------------------------------------------------------------------
# building the instance (shared by the driver and the serve role)


def generate_data(workload: Workload, seed: int) -> Any:
    from repro.workloads import SupplierScale, generate

    if workload.door == "cluster":
        return generate()  # what the workers' factory builds
    suppliers, parts, agents = workload.scale
    return generate(SupplierScale(suppliers, parts, agents, seed=seed))


def build_database(workload: Workload, data: Any) -> Any:
    from repro.workloads import build_database as build

    database = build(data)
    if workload.ledger:
        database.run_script(LEDGER_DDL)
    return database


# ----------------------------------------------------------------------
# the server process of the wire workloads


def _peak_rss_mb_of(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_main(workload: Workload, seed: int) -> int:
    """The ``serve`` role: host the HTTP server or the cluster, print its
    address, block until stdin says quit (or closes), report peak RSS."""
    worker_urls: list[str] = []
    worker_pids: list[int] = []
    if workload.door == "http":
        from repro.net.server import QueryServer

        database = build_database(workload, generate_data(workload, seed))
        server = QueryServer(database, workers=2)
    else:
        from repro.cluster import WorkerConfig, WorkerSource, serve_cluster

        server = serve_cluster(
            WorkerSource.from_factory(CLUSTER_FACTORY),
            shards=2,
            config=WorkerConfig(threads=2),
        )
        try:  # introspection only; the run survives without it
            shards = server.coordinator.snapshot()
            worker_pids = [shard["pid"] for shard in shards]
            worker_urls = [
                server.coordinator.worker_url(shard["shard"]) for shard in shards
            ]
        except Exception:
            pass
    try:
        print(json.dumps({"url": server.url, "workers": worker_urls}), flush=True)
        sys.stdin.readline()
        worker_rss = [_peak_rss_mb_of(pid) for pid in worker_pids]
    finally:
        server.drain()
    rss = self_peak_rss_mb()
    if worker_pids:
        if None in worker_rss:  # no /proc: the reaped children's maximum
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            rss += peak * len(worker_pids)
        else:
            rss += sum(worker_rss)
    print(json.dumps({"rss_mb": rss}), flush=True)
    return 0


class ServerProcess:
    """The driver's handle on a ``serve``-role child."""

    def __init__(self, workload: Workload, seed: int) -> None:
        command = [
            sys.executable,
            *(f"-W{option}" for option in sys.warnoptions),
            os.path.join(HERE, "run.py"),
            "--role", "serve", "--workload", workload.name, "--seed", str(seed),
        ]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise RuntimeError(
                f"server process exited with code {self.process.returncode}"
            )
        info = json.loads(line)
        self.url: str = info["url"]
        self.worker_urls: list[str] = info["workers"]

    def stop(self) -> float:
        """Drain the server; returns the peak RSS (MB) of its processes."""
        try:
            self.process.stdin.write("quit\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            self.process.wait(timeout=60)
            return json.loads(line)["rss_mb"] if line else 0.0
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()


# ----------------------------------------------------------------------
# recorded samples


@dataclass
class Recorder:
    """Per-caller samples.  Times are ``perf_counter_ns`` minus
    ``offset``, the time spent paused between rounds, so the timeline
    reads as if the pauses never happened."""

    start: list[int] = field(default_factory=list)
    end: list[int] = field(default_factory=list)
    cls: list[int] = field(default_factory=list)
    fetch: list[int] | None = None  # traced: when fetchall() began
    stats: list[dict] | None = None  # traced: Cursor.executed.stats
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    offset: int = 0
    rounds: list[int] = field(default_factory=list)  # sample index where each round ends
    inserted: list[tuple[int, int]] = field(default_factory=list)
    next_key: int = 0
    key_stride: int = 1
    chunks: list[tuple[int, int]] = field(default_factory=list)  # (when, how long) ns
    next_chunk: int = 0  # clock value from which the next chunk is due

    @classmethod
    def traced(cls, **kwargs: Any) -> "Recorder":
        return cls(fetch=[], stats=[], **kwargs)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def calibrate(rec: Recorder) -> None:
    """Time one calibration chunk — dict stores, integer arithmetic and a
    loop, nothing of ``repro`` — and take it out of the recorder's
    timeline."""
    clock = time.perf_counter_ns
    t0 = clock()
    table: dict[int, int] = {}
    for i in range(CHUNK_LOOPS):
        table[i % 997] = (i * 31) ^ (i >> 3)
    t1 = clock()
    rec.chunks.append((t0 - rec.offset, t1 - t0))
    rec.offset += t1 - t0
    rec.next_chunk = t1 + CHUNK_EVERY_NS


@dataclass
class Door:
    """The connections one caller drives."""

    conn: Any
    stream_conn: Any | None = None  # NDJSON connection for big_result

    def close(self) -> None:
        for conn in (self.conn, self.stream_conn):
            if conn is not None:
                conn.close()


class Step(NamedTuple):
    """An operation flattened for the hot loop, which unpacks it whole."""

    sql: str
    params: dict | None
    mode: str | None
    kind: int  # _READ | _DML | _SEQ_INSERT
    count: int  # expected rows (read) or affected rows (DML)
    checksum: int
    cls: int
    batch: int | None
    stream: bool


def prepare(ops: Sequence[Op], expected: Sequence[tuple[int, int]], streaming: bool) -> list[Step]:
    steps = []
    for op, (count, checksum) in zip(ops, expected):
        if op.kind == READ:
            kind = _READ
        elif op.kind == INSERT and op.params is None:
            kind = _SEQ_INSERT
        else:
            kind = _DML
        steps.append(Step(
            op.sql, op.bindings, op.mode, kind, count, checksum,
            CLASS_INDEX[op.cls], op.batch, streaming and op.cls == "big_result",
        ))
    return steps


def run_ops(
    door: Door,
    steps: Sequence[Step],
    rec: Recorder,
    *,
    start: int = 0,
    count: int | None = None,
    deadline_ns: int | None = None,
    capture: list | None = None,
) -> int:
    """The closed loop.  Walks *steps* round-robin from *start* until
    *count* operations ran or the clock passes *deadline_ns*; returns the
    index to resume from.  With *capture*, appends each read's rows (the
    set-up pass compares them in full, outside any timing)."""
    clock = time.perf_counter_ns
    traced = rec.fetch is not None
    n = len(steps)
    i = start % n
    done = 0
    while count is None or done < count:
        sql, params, mode, kind, want_count, want_sum, cls, batch, stream = steps[i]
        if batch is not None:
            j = i
            while j < n and steps[j].batch == batch and steps[j].sql == sql:
                j += 1
            done += _run_batch(door, steps[i:j], rec)
            i = j % n
            if clock() >= rec.next_chunk:
                calibrate(rec)
            continue
        conn = door.stream_conn if stream else door.conn
        if kind == _SEQ_INSERT:
            key = rec.next_key
            rec.next_key += rec.key_stride
            params = {"K": key, "V": ledger_value(key)}
        rec.attempted += 1
        off = rec.offset
        try:
            t0 = clock()
            cursor = conn.execute(sql, params, engine_mode=mode)
            if traced:
                t_fetch = clock()
            rows = cursor.fetchall()
            t1 = clock()
        except Exception as error:  # an operation that raised is a failure
            rec.fail(f"{type(error).__name__}: {error} [{sql}]")
            t0 = t1 = t_fetch = clock()
            rows = None
        rec.start.append(t0 - off)
        rec.end.append(t1 - off)
        rec.cls.append(cls)
        if traced:
            rec.fetch.append(t_fetch - off)
            rec.stats.append(cursor.executed.stats if rows is not None else {})
        if rows is not None:
            if kind == _READ:
                if fingerprint(rows) != (want_count, want_sum):
                    rec.fail(f"rows differ from the oracle [{sql}] {params}")
                if capture is not None:
                    capture.append(rows)
            else:
                if cursor.rowcount != want_count:
                    rec.fail(f"rowcount {cursor.rowcount} != {want_count} [{sql}]")
                if kind == _SEQ_INSERT:
                    rec.inserted.append((key, params["V"]))
        done += 1
        i += 1
        if i == n:
            i = 0
        if deadline_ns is not None and t1 >= deadline_ns:
            break
        if t1 >= rec.next_chunk:
            calibrate(rec)
    return i


def _run_batch(door: Door, batch: Sequence[Step], rec: Recorder) -> int:
    """One ``executemany`` inside an explicit transaction; its time,
    commit included, is split evenly over the parameter sets."""
    clock = time.perf_counter_ns
    size = len(batch)
    sql, cls = batch[0].sql, batch[0].cls
    rec.attempted += size
    off = rec.offset
    try:
        t0 = clock()
        door.conn.begin()
        cursor = door.conn.cursor()
        cursor.executemany(sql, [step.params for step in batch])
        t_fetch = clock()
        door.conn.commit()
        t1 = clock()
        if cursor.rowcount != sum(step.count for step in batch):
            rec.fail(f"batch rowcount {cursor.rowcount} [{sql}]")
    except Exception as error:
        rec.failed += size - 1
        rec.fail(f"{type(error).__name__}: {error} [{sql}]")
        t0 = t1 = t_fetch = clock()
        door.conn.rollback()
    each = (t1 - t0) // size
    for k in range(size):
        rec.start.append(t0 - off + k * each)
        rec.end.append(t0 - off + (k + 1) * each)
        rec.cls.append(cls)
    if rec.fetch is not None:
        rec.fetch.extend(t0 - off + k * each + (t_fetch - t0) // size for k in range(size))
        rec.stats.extend({} for _ in range(size))
    return size


# ----------------------------------------------------------------------
# set-up


class Bench:
    """One workload, set up and ready to time.

    Construction *is* the set-up the ``setup_s`` metric times: imports,
    ``generate`` + ``build_database``, the oracle load, server or cluster
    start, the full-answer verification of every distinct statement, and
    the warm-up.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        import repro

        self.repro = repro
        self.workload = workload
        self.seed = seed
        self.server: ServerProcess | None = None
        self.doors: list[Door] = []
        self.setup = Recorder()  # verification and warm-up operations
        self.data = generate_data(workload, seed)
        self.oracle = Oracle(self.data, ledger=workload.ledger, null=repro.NULL)
        self.ops = build_ops(workload, seed)
        self.database = None
        # LEDGER keys the harness hands out: caller c takes c, c + callers, ...
        self.next_keys = list(range(workload.callers))
        try:
            if workload.door == "local":
                if not workload.phased:  # phased: a fresh database per round
                    self.database = build_database(workload, self.data)
                    self.doors = [Door(repro.connect(self.database))]
            else:
                self.server = ServerProcess(workload, seed)
                self.doors = [
                    Door(
                        repro.connect(self.server.url),
                        repro.connect(self.server.url, stream=True),
                    )
                    for _ in range(workload.callers)
                ]
            if workload.phased:
                self.steps = [self._verify_round()]
                self.resume = [0]
            else:
                self.steps = self._verify_cycle()
                self.resume = self._warm_up()
        except BaseException:
            self.close()
            raise

    # -- phased (write_local): one verified round doubles as warm-up -----

    def fresh_door(self) -> Door:
        self.database = build_database(self.workload, self.data)
        return Door(self.repro.connect(self.database))

    def _verify_round(self) -> list[Step]:
        ops = self.ops[0]
        self.oracle.reset_ledger()
        full: list[list[tuple]] = []
        expected = []
        for op in ops:
            if op.kind == READ:
                rows = self.oracle.rows(op)
                full.append(rows)
                expected.append(fingerprint(rows))
            else:
                expected.append((self.oracle.apply(op), 0))
        self.final_ledger = sorted(self.oracle.ledger_rows())
        steps = prepare(ops, expected, streaming=False)
        door = self.fresh_door()
        captured: list = []
        run_ops(door, steps, self.setup, count=len(steps), capture=captured)
        self._compare_full(
            [op for op in ops if op.kind == READ], captured, full
        )
        self.check_ledger(door, self.setup)
        door.close()
        return steps

    # -- cyclic workloads -------------------------------------------------

    def _verify_cycle(self) -> list[list[Step]]:
        """Verify each distinct (text, bindings, mode) once, in full."""
        distinct: dict[tuple, Op] = {}
        for ops in self.ops:
            for op in ops:
                if op.kind == READ:
                    distinct.setdefault((op.key, op.mode), op)
        todo = list(distinct.values())
        full = [self.oracle.rows(op) for op in todo]
        answers = {op.key: fingerprint(rows) for op, rows in zip(todo, full)}
        streaming = self.workload.door != "local"
        steps = prepare(todo, [answers[op.key] for op in todo], streaming)
        captured: list = []
        run_ops(self.doors[0], steps, self.setup, count=len(steps), capture=captured)
        self._compare_full(todo, captured, full)
        return [
            prepare(
                ops,
                [answers[op.key] if op.kind == READ else (1, 0) for op in ops],
                streaming,
            )
            for ops in self.ops
        ]

    def _compare_full(self, ops: list[Op], got: list, want: list) -> None:
        if len(got) != len(want):
            return  # an operation raised; it is already counted
        for op, mine, theirs in zip(ops, got, want):
            if sorted_multiset(mine) != sorted_multiset(theirs):
                self.setup.fail(f"multiset differs from sqlite [{op.sql}] {op.params}")

    def _warm_up(self) -> list[int]:
        """Bring the operations sent before the clock starts up to the
        workload's ``warmup``; returns where the timed loop begins."""
        workload = self.workload
        callers = len(self.doors)
        per_caller = -(-max(0, workload.warmup - self.setup.attempted) // callers)
        steps = self.steps
        if workload.warm_classes is not None:
            wanted = {CLASS_INDEX[cls] for cls in workload.warm_classes}
            steps = [[step for step in mine if step.cls in wanted] for mine in steps]
        recorders = [self.new_recorder(caller) for caller in range(callers)]
        resume = self.run_callers(recorders, [0] * callers, count=per_caller, steps=steps)
        for rec in recorders:
            self.setup.attempted += rec.attempted
            self.setup.failed += rec.failed
            self.setup.errors.extend(rec.errors)
            self.setup.inserted.extend(rec.inserted)
            self.setup.chunks.extend(rec.chunks)
        return resume if steps is self.steps else [0] * callers

    def new_recorder(self, caller: int, traced: bool = False) -> Recorder:
        make = Recorder.traced if traced else Recorder
        return make(next_key=self.next_keys[caller], key_stride=self.workload.callers)

    def run_callers(
        self,
        recorders: list[Recorder],
        starts: list[int],
        *,
        count: int | None = None,
        seconds: float | None = None,
        steps: list[list[Step]] | None = None,
    ) -> list[int]:
        """Run every caller's closed loop (threads when there are two);
        returns where each stopped in its operation list."""
        if count == 0:
            return starts
        steps = steps if steps is not None else self.steps
        deadline = (
            None if seconds is None
            else time.perf_counter_ns() + int(seconds * 1e9)
        )
        resume = list(starts)

        def work(caller: int) -> None:
            resume[caller] = run_ops(
                self.doors[caller], steps[caller], recorders[caller],
                start=starts[caller], count=count, deadline_ns=deadline,
            )

        if len(self.doors) == 1:
            work(0)
        else:
            threads = [
                threading.Thread(target=work, args=(caller,))
                for caller in range(len(self.doors))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.next_keys = [rec.next_key for rec in recorders]
        return resume

    def setup_speed(self) -> float:
        """The machine's speed against the reference while setting up."""
        took = [ns for _, ns in self.setup.chunks]
        return REFERENCE_CHUNK_US * 1e3 / statistics.median(took) if took else 1.0

    # -- the timed region ---------------------------------------------------

    def timed(self, seconds: float, traced: bool = False) -> list[Recorder]:
        """Measure for *seconds*; returns one recorder per caller."""
        if self.workload.phased:
            return [self._timed_rounds(seconds, traced)]
        recorders = [
            self.new_recorder(caller, traced) for caller in range(len(self.doors))
        ]
        self.resume = self.run_callers(recorders, self.resume, seconds=seconds)
        return recorders

    def _timed_rounds(self, seconds: float, traced: bool) -> Recorder:
        """Whole rounds, each on a fresh database, until the time is up.
        Building the database and checking LEDGER afterwards happen with
        the recorder's clock paused."""
        clock = time.perf_counter_ns
        rec = Recorder.traced() if traced else Recorder()
        steps = self.steps[0]
        budget = int(seconds * 1e9)
        began = clock()
        last_round = 0
        # Start another round only while at least half of it still fits.
        while clock() - began - rec.offset + last_round // 2 < budget or not rec.rounds:
            paused = clock()
            door = self.fresh_door()
            rec.offset += clock() - paused
            t0 = clock()
            run_ops(door, steps, rec, count=len(steps))
            last_round = clock() - t0
            rec.rounds.append(len(rec.end))
            paused = clock()
            self.check_ledger(door, rec)
            door.close()
            rec.offset += clock() - paused
        return rec

    # -- LEDGER's final contents --------------------------------------------

    def check_ledger(self, door: Door, rec: Recorder) -> None:
        rec.attempted += 1
        try:
            rows = door.conn.execute("SELECT L.K, L.V FROM LEDGER L").fetchall()
        except Exception as error:
            rec.fail(f"{type(error).__name__}: {error} [final LEDGER read]")
            return
        if sorted(rows) != self.final_ledger:
            rec.fail("final LEDGER contents differ from the oracle")

    def check_sequenced_ledger(self, recorders: list[Recorder]) -> None:
        """mixed_http: replay every insert the callers made into sqlite,
        then compare the table the server ends with."""
        self.oracle.reset_ledger()
        insert = next(op for op in self.ops[0] if op.kind == INSERT)
        for rec in [self.setup, *recorders]:
            for key, value in rec.inserted:
                self.oracle.apply(insert, {"K": key, "V": value})
        self.final_ledger = sorted(self.oracle.ledger_rows())
        self.check_ledger(self.doors[0], recorders[0])

    def close(self) -> float:
        """Tear down; returns the peak RSS (MB) of the server processes."""
        for door in self.doors:
            door.close()
        self.doors = []
        self.oracle.close()
        if self.server is not None:
            server, self.server = self.server, None
            return server.stop()
        return 0.0


# ----------------------------------------------------------------------
# metrics from samples


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil
    return sorted_values[int(rank) - 1]


@dataclass
class Samples:
    """All callers' samples merged and ordered by completion time."""

    start: list[int]
    end: list[int]
    cls: list[int]
    bounds: list[tuple[int, int]]  # [lo, hi) sample ranges, one per window
    speed: list[float]  # per window: REFERENCE_CHUNK_US / the chunk's median time

    @functools.cached_property
    def latency_us(self) -> list[float]:
        return [(e - s) / 1000.0 for s, e in zip(self.start, self.end)]


def merge(recorders: list[Recorder]) -> Samples:
    if len(recorders) == 1:
        rec = recorders[0]
        start, end, cls = rec.start, rec.end, rec.cls
    else:
        order = sorted(
            (e, s, c)
            for rec in recorders
            for s, e, c in zip(rec.start, rec.end, rec.cls)
        )
        end = [e for e, _, _ in order]
        start = [s for _, s, _ in order]
        cls = [c for _, _, c in order]
    rounds = recorders[0].rounds
    if rounds:  # phased: a window is a round
        bounds = list(zip([0, *rounds[:-1]], rounds))
    else:
        n = len(end)
        bounds = [(n * k // WINDOWS, n * (k + 1) // WINDOWS) for k in range(WINDOWS)]
    return Samples(start, end, cls, bounds, _window_speeds(recorders, start, end, bounds))


def _window_speeds(
    recorders: list[Recorder], start: list[int], end: list[int], bounds: list[tuple[int, int]]
) -> list[float]:
    """Per window, the machine's speed against the reference: the
    reference chunk time over the median time of the chunks run while the
    window lasted (over the run's median where a window holds none)."""
    chunks = sorted(chunk for rec in recorders for chunk in rec.chunks)
    if not chunks:
        return [1.0] * len(bounds)
    when = [t for t, _ in chunks]
    overall = statistics.median(ns for _, ns in chunks)
    speeds = []
    for lo, hi in bounds:
        inside = chunks[
            bisect.bisect_left(when, min(start[lo:hi], default=0)):
            bisect.bisect_right(when, end[hi - 1] if hi > lo else 0)
        ]
        took = statistics.median(ns for _, ns in inside) if inside else overall
        speeds.append(REFERENCE_CHUNK_US * 1e3 / took)
    return speeds


def end_to_end(samples: Samples) -> dict[str, dict]:
    """``stmts_per_s`` and ``p50_us``: medians over the windows of each
    window's rate and median latency *at the reference speed* — the
    window's own value scaled by how fast its calibration chunks ran.
    The per-window values are kept (``compare.py`` reads them to tell
    noise from change)."""
    latency = samples.latency_us
    rate, p50 = [], []
    for (lo, hi), speed in zip(samples.bounds, samples.speed):
        if hi <= lo:
            continue
        wall_ns = samples.end[hi - 1] - min(samples.start[lo:hi])
        rate.append((hi - lo) / (wall_ns / 1e9) / speed)
        p50.append(statistics.median(latency[lo:hi]) * speed)
    return {
        "stmts_per_s": {
            "value": statistics.median(rate), "unit": "1/s", "windows": rate,
        },
        "p50_us": {
            "value": statistics.median(p50), "unit": "us", "windows": p50,
        },
    }


def door_diagnostics(samples: Samples) -> dict[str, float]:
    """The machine's speed against the reference (below 1: it ran slower
    than the speed results are quoted at), and latency as the clock read
    it over all timed samples: median, tail and drift.  The tail is too
    unsteady on this box to carry a bound, so all are per-layer metrics."""
    latency = samples.latency_us
    ordered = sorted(latency)
    fifth = max(1, len(samples.bounds) // 5)
    first = latency[samples.bounds[0][0]:samples.bounds[fifth - 1][1]]
    last = latency[samples.bounds[-fifth][0]:samples.bounds[-1][1]]
    return {
        "bench.speed_ratio": statistics.median(samples.speed),
        "door.p50_raw_us": statistics.median(latency),
        "door.p95_us": percentile(ordered, 95),
        "door.p99_us": percentile(ordered, 99),
        "door.drift_ratio": statistics.median(last) / statistics.median(first),
    }
