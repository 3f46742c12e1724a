"""E21 — the write path, and what writes cost the read path.

Two claims for the MVCC write engine:

* **E21a** — key enforcement is a point probe, so a single-row
  autocommit INSERT costs the same on an empty and on a full table and
  stays within 3× of the per-row cost of one batched transaction; what
  batching still saves is the per-statement front door (parse, plan,
  begin/commit), not a scan.  (Until PR 15 the "≈ 19× batched commit"
  this experiment reported was the O(table) key-set rebuild every
  autocommit transaction paid, not commit amortisation.)
* **E21b** — scoped invalidation keeps warm reads warm: the p50 of a
  plan-cached join query stays within 10% of the read-only baseline
  while every read is interleaved with a committed write *to another
  table*.  Under the old whole-database fingerprint every one of those
  writes would have evicted the plan and forced a replan per read.

Every table lands in ``BENCH_e21.json``.
"""

import gc
import statistics

import repro
from repro.bench import ExperimentReport, timed
from repro.engine import PlanCache, execute_planned
from repro.engine.stats import Stats
from repro.workloads import SupplierScale, build_database, generate

E21_SCALE = SupplierScale(
    suppliers=60, parts_per_supplier=8, agents_per_supplier=3
)

#: The warm read: a key-bound join whose plan is worth caching.
READ_SQL = (
    "SELECT P.PNAME FROM PARTS P, SUPPLIER S "
    "WHERE P.SNO = S.SNO AND S.BUDGET > 300"
)

SIDE_DDL = (
    "CREATE TABLE SIDE (K INT NOT NULL, V INT, PRIMARY KEY (K));"
)

BULK_ROWS = 2000
CHUNK = 100
READS = 200


def _throughput(elapsed: float, rows: int) -> float:
    return rows / elapsed if elapsed > 0 else float("inf")


def test_e21a_autocommit_insert_is_flat_and_near_batched():
    """Autocommit INSERT does not grow with the table and stays within
    3× of the batched per-row cost (ROADMAP item 2's targets).

    Three arms run interleaved, one chunk each per round, so a CPU
    speed change mid-run lands on all three: autocommit rows 1–1000 of
    a table, autocommit rows 1001–2000 of an identical table preloaded
    with the first thousand, and batched ``executemany`` + one commit.
    The ratios asserted are medians of the per-round ratios.
    """
    report = ExperimentReport(
        experiment="E21a: write throughput, autocommit vs batched commit",
        claim="the key check is one probe per candidate key, so "
        "autocommit INSERT is flat in table size and within 3x of the "
        "batched per-row cost; batching saves the per-statement front "
        "door, not a scan",
        columns=["mode", "rows", "t(ms)", "rows/s"],
        slug="e21",
    )
    half = BULK_ROWS // 2
    insert = "INSERT INTO SIDE VALUES (:K, :V)"

    def connection():
        db = build_database(generate(E21_SCALE))
        db.run_script(SIDE_DDL)
        return repro.connect(db)

    def rows(start: int, count: int) -> list[dict]:
        return [{"K": k, "V": k} for k in range(start, start + count)]

    first, second, batched = connection(), connection(), connection()
    batched.autocommit = False
    batch_cursor = batched.cursor()
    second.autocommit = False
    second.cursor().executemany(insert, rows(0, half))
    second.commit()
    second.autocommit = True

    def autocommit_chunk(conn, start: int) -> float:
        chunk = rows(start, CHUNK)
        return timed(lambda: [conn.execute(insert, p) for p in chunk])[1]

    def batched_chunk(start: int) -> float:
        chunk = rows(start, 2 * CHUNK)
        return timed(
            lambda: (batch_cursor.executemany(insert, chunk), batched.commit())
        )[1]

    gc.collect()
    times = []  # per round: (rows 1-1000, rows 1001-2000, batched 2 chunks)
    for start in range(0, half, CHUNK):
        times.append((
            autocommit_chunk(first, start),
            autocommit_chunk(second, half + start),
            batched_chunk(2 * start),
        ))
    for conn, expected in ((first, half), (second, BULK_ROWS), (batched, BULK_ROWS)):
        assert conn.execute("SELECT K FROM SIDE").rowcount == expected
        conn.close()

    t_first = sum(t[0] for t in times)
    t_second = sum(t[1] for t in times)
    t_autocommit = t_first + t_second
    t_batched = sum(t[2] for t in times)
    growth = statistics.median(t[1] / t[0] for t in times)
    vs_batched = statistics.median((t[0] + t[1]) / t[2] for t in times)
    for label, count, elapsed in (
        ("autocommit, one txn/row", BULK_ROWS, t_autocommit),
        (f"  of which rows 1-{half}", half, t_first),
        (f"  of which rows {half + 1}-{BULK_ROWS}", half, t_second),
        (f"executemany, one commit per {2 * CHUNK}", BULK_ROWS, t_batched),
    ):
        report.add_row(
            label, count, elapsed * 1e3, f"{_throughput(elapsed, count):.0f}"
        )
    report.note(
        f"{BULK_ROWS} single-row INSERTs into a keyed table per mode, the "
        f"three arms interleaved in chunks of {CHUNK} rows; final row "
        "counts verified"
    )
    report.note(
        f"median per-round ratios: autocommit/batched per-row cost "
        f"{vs_batched:.2f}x (<= 3 asserted); rows {half + 1}-{BULK_ROWS} "
        f"cost {growth:.2f}x rows 1-{half} (<= 1.5 asserted)"
    )
    report.show()
    assert t_batched < t_autocommit, (
        f"batched commit not faster: {t_batched:.3f}s vs "
        f"{t_autocommit:.3f}s"
    )
    assert vs_batched <= 3.0, (
        f"autocommit per-row cost {vs_batched:.2f}x the batched per-row "
        "cost (target: within 3x)"
    )
    assert growth <= 1.5, (
        f"autocommit INSERT grows with the table: rows {half + 1}-"
        f"{BULK_ROWS} cost {growth:.2f}x rows 1-{half}"
    )


def test_e21b_warm_read_p50_under_writes_within_10pct():
    """Interleaved writes to another table leave the read path warm."""
    db = build_database(generate(E21_SCALE))
    db.run_script(SIDE_DDL)
    cache = PlanCache()
    conn = repro.connect(db)

    def read_once() -> float:
        stats = Stats()
        _, elapsed = timed(
            lambda: execute_planned(
                READ_SQL, db, plan_cache=cache, stats=stats
            )
        )
        return elapsed, stats

    # Prime the cache, then measure the read-only warm path.
    read_once()
    gc.collect()
    gc.disable()
    try:
        baseline = [read_once() for _ in range(READS)]
        under_writes = []
        for k in range(READS):
            conn.execute(
                "INSERT INTO SIDE VALUES (:K, :V)", {"K": k, "V": k}
            )
            under_writes.append(read_once())
    finally:
        gc.enable()

    # Every measured read — in both phases — was served from the plan
    # cache: the committed writes to SIDE never evicted the entry.
    for elapsed, stats in baseline + under_writes:
        assert stats.plan_cache_hits == 1, "read missed the plan cache"

    p50_baseline = statistics.median(t for t, _ in baseline)
    p50_writes = statistics.median(t for t, _ in under_writes)
    ratio = p50_writes / p50_baseline if p50_baseline > 0 else 1.0

    report = ExperimentReport(
        experiment="E21b: warm read p50 under interleaved writes",
        claim="scoped invalidation keeps the warm-read p50 within 10% "
        "of read-only while every read follows a committed write to "
        "another table",
        columns=["phase", "reads", "p50(us)", "vs read-only"],
        slug="e21",
    )
    report.add_row(
        "read-only", READS, p50_baseline * 1e6, "1.00x"
    )
    report.add_row(
        "1 committed write/read", READS, p50_writes * 1e6, f"{ratio:.2f}x"
    )
    report.note(
        "every read in both phases hit the plan cache; writes insert "
        "into a table the read never touches"
    )
    report.show()
    assert ratio <= 1.10, (
        f"warm read p50 degraded {ratio:.2f}x under writes "
        f"({p50_writes * 1e6:.0f}us vs {p50_baseline * 1e6:.0f}us)"
    )
