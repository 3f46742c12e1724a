"""Statement templates, their sqlite twins, and the six seeded workloads.

Everything here is pure data and pure functions of ``(workload, seed)``:
no ``repro`` import, no clock, no I/O.  ``run.py --selfcheck`` hashes
the operation list twice to prove that.

A *statement class* names what a statement asks of the engine
(``key_lookup``, ``distinct_removable`` …); a *template* is one SQL
text of that class in this repo's dialect with the same statement in
sqlite's dialect (quoted identifiers) beside it, so the oracle runs
exactly what the system under test runs.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Any

# These mirror repro.workloads.supplier's value pools; the oracle check
# fails loudly if they ever stop matching generated data (empty results
# still verify, but the row-count diagnostics in the README would move).
CITIES = ("Chicago", "New York", "Toronto")
COLORS = ("RED", "BLUE", "GREEN", "YELLOW")
AGENT_CITIES = ("Ottawa", "Hull", "Toronto", "Chicago")

LEDGER_DDL = "CREATE TABLE LEDGER (K INT NOT NULL, V INT, PRIMARY KEY (K));"
LEDGER_DDL_SQLITE = (
    'CREATE TABLE "LEDGER" ("K" INTEGER NOT NULL, "V" INTEGER, PRIMARY KEY ("K"))'
)

READ, INSERT, UPDATE, DELETE = "read", "insert", "update", "delete"


@dataclass(frozen=True)
class Template:
    """One statement text: class, kind, and the two dialects."""

    cls: str
    kind: str
    sql: str
    sqlite: str


def _t(cls: str, kind: str, sql: str, sqlite: str) -> Template:
    return Template(cls, kind, " ".join(sql.split()), " ".join(sqlite.split()))


TEMPLATES: dict[str, Template] = {
    # -- point reads ----------------------------------------------------
    "key_lookup.supplier": _t(
        "key_lookup", READ,
        "SELECT S.SNO, S.SNAME, S.SCITY, S.BUDGET FROM SUPPLIER S WHERE S.SNO = :SNO",
        'SELECT S."SNO", S."SNAME", S."SCITY", S."BUDGET" FROM "SUPPLIER" S '
        'WHERE S."SNO" = :SNO',
    ),
    "key_lookup.agent": _t(
        "key_lookup", READ,
        "SELECT A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.ANO = :ANO",
        'SELECT A."ANO", A."ANAME", A."ACITY" FROM "AGENTS" A WHERE A."ANO" = :ANO',
    ),
    "key_lookup.ledger": _t(
        "key_lookup", READ,
        "SELECT L.K, L.V FROM LEDGER L WHERE L.K = :K",
        'SELECT L."K", L."V" FROM "LEDGER" L WHERE L."K" = :K',
    ),
    "key_join_point.part": _t(
        "key_join_point", READ,
        "SELECT S.SNAME, P.PNAME, P.COLOR FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.SNO = :SNO AND P.PNO = :PNO",
        'SELECT S."SNAME", P."PNAME", P."COLOR" FROM "SUPPLIER" S, "PARTS" P '
        'WHERE S."SNO" = P."SNO" AND P."SNO" = :SNO AND P."PNO" = :PNO',
    ),
    "key_join_point.agent": _t(
        "key_join_point", READ,
        "SELECT S.SNAME, A.ANAME, A.ACITY FROM SUPPLIER S, AGENTS A "
        "WHERE S.SNO = A.SNO AND A.ANO = :ANO",
        'SELECT S."SNAME", A."ANAME", A."ACITY" FROM "SUPPLIER" S, "AGENTS" A '
        'WHERE S."SNO" = A."SNO" AND A."ANO" = :ANO',
    ),
    # -- analytic reads (LO/HI keep 50-100 % of the suppliers in range) --
    "filter_scan": _t(
        "filter_scan", READ,
        "SELECT P.SNO, P.PNO, P.PNAME FROM PARTS P "
        "WHERE P.COLOR = :COLOR AND P.SNO BETWEEN :LO AND :HI",
        'SELECT P."SNO", P."PNO", P."PNAME" FROM "PARTS" P '
        'WHERE P."COLOR" = :COLOR AND P."SNO" BETWEEN :LO AND :HI',
    ),
    "key_join": _t(
        "key_join", READ,
        "SELECT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI",
        'SELECT S."SNAME", P."PNO", P."PNAME" FROM "SUPPLIER" S, "PARTS" P '
        'WHERE S."SNO" = P."SNO" AND S."SCITY" = :CITY '
        'AND S."SNO" BETWEEN :LO AND :HI',
    ),
    "distinct_removable": _t(  # (SNO, PNO) keys PARTS: Theorem 1 drops DISTINCT
        "distinct_removable", READ,
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = :COLOR AND S.SNO BETWEEN :LO AND :HI",
        'SELECT DISTINCT S."SNO", P."PNO", P."PNAME" FROM "SUPPLIER" S, "PARTS" P '
        'WHERE S."SNO" = P."SNO" AND P."COLOR" = :COLOR '
        'AND S."SNO" BETWEEN :LO AND :HI',
    ),
    "distinct_needed": _t(  # names collide: duplicate elimination must run
        "distinct_needed", READ,
        "SELECT DISTINCT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P "
        "WHERE S.SNO = P.SNO AND P.COLOR = :COLOR AND S.SNO BETWEEN :LO AND :HI",
        'SELECT DISTINCT S."SNAME", P."PNAME" FROM "SUPPLIER" S, "PARTS" P '
        'WHERE S."SNO" = P."SNO" AND P."COLOR" = :COLOR '
        'AND S."SNO" BETWEEN :LO AND :HI',
    ),
    "exists_probe": _t(  # subquery bound on PARTS' key: Theorem 2 flattens it
        "exists_probe", READ,
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
        "WHERE S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI AND EXISTS "
        "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PNO)",
        'SELECT ALL S."SNO", S."SNAME" FROM "SUPPLIER" S '
        'WHERE S."SCITY" = :CITY AND S."SNO" BETWEEN :LO AND :HI AND EXISTS '
        '(SELECT * FROM "PARTS" P WHERE S."SNO" = P."SNO" AND P."PNO" = :PNO)',
    ),
    "intersect": _t(  # SNO keys SUPPLIER: Theorem 3 turns INTERSECT into a probe
        "intersect", READ,
        "SELECT ALL S.SNO FROM SUPPLIER S "
        "WHERE S.SCITY = :CITY AND S.SNO BETWEEN :LO AND :HI "
        "INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = :ACITY",
        'SELECT ALL S."SNO" FROM "SUPPLIER" S '
        'WHERE S."SCITY" = :CITY AND S."SNO" BETWEEN :LO AND :HI '
        'INTERSECT SELECT ALL A."SNO" FROM "AGENTS" A WHERE A."ACITY" = :ACITY',
    ),
    "big_result": _t(
        "big_result", READ,
        "SELECT P.SNO, P.PNO, P.PNAME, P.COLOR FROM PARTS P",
        'SELECT P."SNO", P."PNO", P."PNAME", P."COLOR" FROM "PARTS" P',
    ),
    # -- writes on LEDGER -------------------------------------------------
    "insert_autocommit": _t(
        "insert_autocommit", INSERT,
        "INSERT INTO LEDGER VALUES (:K, :V)",
        'INSERT INTO "LEDGER" VALUES (:K, :V)',
    ),
    "insert_batched": _t(
        "insert_batched", INSERT,
        "INSERT INTO LEDGER VALUES (:K, :V)",
        'INSERT INTO "LEDGER" VALUES (:K, :V)',
    ),
    "update_by_key": _t(
        "update_by_key", UPDATE,
        "UPDATE LEDGER SET V = :V WHERE K = :K",
        'UPDATE "LEDGER" SET "V" = :V WHERE "K" = :K',
    ),
    "delete_by_key": _t(
        "delete_by_key", DELETE,
        "DELETE FROM LEDGER WHERE K = :K",
        'DELETE FROM "LEDGER" WHERE "K" = :K',
    ),
}

STATEMENT_CLASSES = tuple(dict.fromkeys(t.cls for t in TEMPLATES.values()))


@dataclass(frozen=True)
class Op:
    """One operation: a statement text with its bindings.

    ``sqlite`` is the same statement for the oracle; ``mode`` is the
    ``engine_mode`` override (None = the connection default); ``batch``
    marks a parameter set of an ``executemany`` (the harness groups
    consecutive ops sharing a batch id, then commits).  An INSERT with
    no ``params`` gets its LEDGER key from the harness at run time.
    """

    cls: str
    kind: str
    sql: str
    sqlite: str
    params: tuple[tuple[str, Any], ...] | None
    mode: str | None = None
    batch: int | None = None

    @property
    def bindings(self) -> dict[str, Any] | None:
        return dict(self.params) if self.params is not None else None

    @property
    def key(self) -> tuple:
        """Identity of the answer: same text + bindings = same rows."""
        return (self.sql, self.params)


@dataclass(frozen=True)
class Dims:
    """The value ranges parameters are drawn from."""

    suppliers: int
    parts: int
    agents: int


def _draw(template_id: str, rng: random.Random, d: Dims) -> dict[str, Any]:
    """Parameter draw for the read templates (LEDGER keys are sequenced
    by the workload builders, not drawn)."""

    def lo_hi() -> dict[str, int]:
        return {
            "LO": rng.randint(1, max(1, d.suppliers // 4)),
            "HI": rng.randint(d.suppliers - d.suppliers // 4, d.suppliers),
        }

    if template_id == "key_lookup.supplier":
        return {"SNO": rng.randint(1, d.suppliers)}
    if template_id in ("key_lookup.agent", "key_join_point.agent"):
        return {"ANO": rng.randint(1, d.suppliers * d.agents)}
    if template_id == "key_join_point.part":
        return {"SNO": rng.randint(1, d.suppliers), "PNO": rng.randint(1, d.parts)}
    if template_id in ("filter_scan", "distinct_removable", "distinct_needed"):
        return {"COLOR": rng.choice(COLORS), **lo_hi()}
    if template_id == "key_join":
        return {"CITY": rng.choice(CITIES), **lo_hi()}
    if template_id == "exists_probe":
        return {"CITY": rng.choice(CITIES), "PNO": rng.randint(1, d.parts), **lo_hi()}
    if template_id == "intersect":
        return {
            "CITY": rng.choice(CITIES),
            "ACITY": rng.choice(AGENT_CITIES),
            **lo_hi(),
        }
    if template_id == "big_result":
        return {}
    raise KeyError(template_id)


def make_op(
    template_id: str,
    params: dict[str, Any] | None,
    *,
    mode: str | None = None,
    batch: int | None = None,
) -> Op:
    t = TEMPLATES[template_id]
    return Op(
        t.cls,
        t.kind,
        t.sql,
        t.sqlite,
        tuple(sorted(params.items())) if params else None,
        mode,
        batch,
    )


_HOSTVAR = re.compile(r":([A-Z]+)")


def inline_literals(sql: str, params: dict[str, Any]) -> str:
    """Replace each host variable by its value as a SQL literal."""

    def literal(match: re.Match) -> str:
        value = params[match.group(1)]
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return str(value)

    return _HOSTVAR.sub(literal, sql)


def _interleave(rng: random.Random, groups: list[list]) -> list:
    """Merge *groups* so that each is spread evenly over the result:
    item k of a group of c lands at (k + jitter) / c.  Any stretch of the
    result then holds each group in proportion, give or take one item —
    a run times only a prefix of its operation list, and a prefix with
    7 % more 4 000-row results than another run's would differ from it
    by more than any bound."""
    placed = [
        ((k + rng.random()) / len(group), item)
        for group in groups
        for k, item in enumerate(group)
    ]
    placed.sort(key=lambda pair: pair[0])
    return [item for _, item in placed]


def _exact_mix(rng: random.Random, shares: dict[str, float], n: int) -> list[str]:
    """*n* template ids, exactly ``share * n`` of each (the first takes
    the rounding remainder), evenly interleaved.  The seed decides the
    order and the keys, never how much of each class a run holds."""
    counts = {t: int(share * n) for t, share in shares.items()}
    first = next(iter(counts))
    counts[first] += n - sum(counts.values())
    return _interleave(rng, [[t] * count for t, count in counts.items()])


# ----------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    """One traffic mix through one front door.

    ``cycle`` is how many operations are generated in all; the timed
    loop walks each caller's list round-robin, so a run that outlasts it
    repeats it (``adhoc_local`` relies on this: each text recurs only
    after the 2 047 others).  ``warmup`` is how many operations go
    through the door before the clock starts, the once-per-distinct-
    statement verification included; ``warm_classes`` restricts the rest
    of them to the named classes (the wire workloads warm up on key
    lookups: what they wait out is a step in per-request cost that is
    complete after about 2 000 requests over HTTP and 1 500 through the
    cluster, whatever the requests are, and the full mix would triple
    the set-up time).
    ``phased`` workloads run whole rounds on a fresh database and use
    rounds as their windows.  ``cold`` tells the traced ladder to clear
    the process caches before each rung, as the workload itself always
    misses them.
    """

    name: str
    why: str
    door: str  # "local" | "http" | "cluster"
    scale: tuple[int, int, int]  # suppliers, parts/supplier, agents/supplier
    callers: int
    warmup: int
    cycle: int
    ledger: bool = False
    phased: bool = False
    cold: bool = False
    warm_classes: tuple[str, ...] | None = None


# The cluster workers build repro.workloads.supplier:build_database with
# no arguments, so mixed_cluster's data is the generator's default scale
# and only its parameter draws follow --seed.
DEFAULT_SCALE = (50, 10, 2)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "point_local",
            "warm key lookups in-process: sql/api front-door work dominates, "
            "engine work is 5-15 % of the call",
            "local", (60, 8, 3), callers=1, warmup=2000, cycle=40000,
        ),
        Workload(
            "analytic_local",
            "1-9 ms scans, joins and the three rewrites on 4 000 PARTS rows: "
            "engine dominates, front door is noise",
            "local", (400, 10, 3), callers=1, warmup=300, cycle=3000,
        ),
        Workload(
            "adhoc_local",
            "2 048 distinct literal texts round-robin: every plan and memo "
            "cache misses, so lex/parse/Algorithm 1/rewrite/plan run each time",
            "local", (60, 8, 3), callers=1, warmup=0, cycle=2048, cold=True,
        ),
        Workload(
            "write_local",
            "autocommit and batched INSERT, then UPDATE/DELETE beside reads: "
            "txn begin/commit, key probe and scoped invalidation",
            "local", (60, 8, 3), callers=1, warmup=0, cycle=0,
            ledger=True, phased=True,
        ),
        Workload(
            "mixed_http",
            "QueryServer in its own process, 2 connections: adds the service "
            "queue, JSON and a TCP connection per request",
            "http", (400, 10, 3), callers=2, warmup=2500, cycle=8000, ledger=True,
            warm_classes=("key_lookup",),
        ),
        Workload(
            "mixed_cluster",
            "2-shard cluster, 2 connections, read-only: adds routing, the hash "
            "ring, a second HTTP hop and the scatter merge",
            "cluster", DEFAULT_SCALE, callers=2, warmup=2000, cycle=5000,
            warm_classes=("key_lookup",),
        ),
    )
}

ANALYTIC_CLASSES = (
    "filter_scan", "key_join", "distinct_removable",
    "distinct_needed", "exists_probe", "intersect",
)
# adhoc_local's 2 048 distinct texts, per template; the key lookups are
# capped by how many keys 60 suppliers x 3 agents give.
ADHOC_QUOTAS = {
    "key_lookup.supplier": 56, "key_lookup.agent": 160,
    "filter_scan": 305, "key_join": 305, "distinct_removable": 305,
    "distinct_needed": 305, "exists_probe": 306, "intersect": 306,
}

# write_local: one round = the three phases at these fixed counts, on a
# fresh database.  Counts keep a round near one second on today's code,
# so a run holds enough rounds to take a median over, and keep the
# batched rows under half of a round's operations, so p50_us is not just
# the per-row cost of one executemany.
WRITE_AUTOCOMMIT = 300
WRITE_BATCHES = 1
WRITE_BATCH_ROWS = 500
WRITE_MIX_REPEATS = 60  # x (2 update : 4 key_lookup : 1 key_join : 1 delete)


def _point_ops(rng: random.Random, d: Dims, n: int) -> list[Op]:
    shares = {
        "key_lookup.supplier": 0.35, "key_lookup.agent": 0.35,
        "key_join_point.part": 0.15, "key_join_point.agent": 0.15,
    }
    return [make_op(t, _draw(t, rng, d)) for t in _exact_mix(rng, shares, n)]


def _analytic_ops(rng: random.Random, d: Dims, n: int) -> list[Op]:
    # Six bindings per class so texts *and* answers repeat (caches stay
    # warm, the oracle verifies a bounded set).  Their supplier ranges
    # are this fixed grid and the walk over class x engine x binding is
    # fixed too, so every seed asks for the same amount of work; the
    # seed picks the colours, cities and part numbers.
    s = d.suppliers
    ranges = [
        {"LO": lo, "HI": hi} for lo in (1, s // 8, s // 4) for hi in (s, s - s // 8)
    ]
    pool = {
        cls: [{**_draw(cls, rng, d), **r} for r in ranges] for cls in ANALYTIC_CLASSES
    }
    classes = len(ANALYTIC_CLASSES)
    ops = []
    for i in range(n):
        cls = ANALYTIC_CLASSES[i % classes]
        passes = i // classes  # flips the engine once per pass over the classes
        mode = "tuple" if passes % 2 == 0 else "vectorized"
        ops.append(make_op(cls, pool[cls][(passes // 2) % len(ranges)], mode=mode))
    return ops


def _adhoc_ops(rng: random.Random, d: Dims) -> list[Op]:
    seen: set[str] = set()
    groups: list[list[Op]] = []
    for template_id, quota in ADHOC_QUOTAS.items():
        t = TEMPLATES[template_id]
        group: list[Op] = []
        misses = 0
        while len(group) < quota:
            params = _draw(template_id, rng, d)
            text = inline_literals(t.sql, params)
            if text in seen:
                misses += 1
                if misses > 100 * quota:
                    raise ValueError(f"scale too small for {quota} distinct {template_id}")
                continue
            seen.add(text)
            group.append(Op(t.cls, t.kind, text, inline_literals(t.sqlite, params), None))
        groups.append(group)
    return _interleave(rng, groups)


def _write_round(rng: random.Random, d: Dims) -> list[Op]:
    ops: list[Op] = []
    key = 0
    for _ in range(WRITE_AUTOCOMMIT):
        ops.append(make_op("insert_autocommit", {"K": key, "V": rng.randrange(10**6)}))
        key += 1
    for batch in range(WRITE_BATCHES):
        for _ in range(WRITE_BATCH_ROWS):
            ops.append(
                make_op(
                    "insert_batched", {"K": key, "V": rng.randrange(10**6)},
                    batch=batch,
                )
            )
            key += 1
    # Keys are split so no operation ever fails: deleted keys are never
    # touched again, looked-up and updated keys are never deleted.
    doomed = rng.sample(range(key), WRITE_MIX_REPEATS)
    stable = sorted(set(range(key)) - set(doomed))
    join_pool = [{"CITY": c, "LO": 1, "HI": d.suppliers} for c in CITIES]
    for victim in doomed:
        step = [
            make_op("update_by_key", {"K": rng.choice(stable), "V": rng.randrange(10**6)}),
            make_op("update_by_key", {"K": rng.choice(stable), "V": rng.randrange(10**6)}),
            *(make_op("key_lookup.ledger", {"K": rng.choice(stable)}) for _ in range(4)),
            make_op("key_join", rng.choice(join_pool)),
            make_op("delete_by_key", {"K": victim}),
        ]
        rng.shuffle(step)
        ops.extend(step)
    return ops


def _wire_ops(
    rng: random.Random, d: Dims, n: int, shares: dict[str, float], join_span: int
) -> list[Op]:
    # LO = 1 and HI = all suppliers keep filter_scan at about a quarter
    # of PARTS; key_join binds *join_span* suppliers.
    scan_pool = [{"COLOR": c, "LO": 1, "HI": d.suppliers} for c in COLORS]
    join_pool = [
        {"CITY": c, "LO": lo, "HI": lo + join_span}
        for c in CITIES
        for lo in (1, d.suppliers // 2)
    ]
    ops = []
    for template_id in _exact_mix(rng, shares, n):
        if template_id == "insert_autocommit":
            # No bindings here: the harness numbers LEDGER keys as it
            # goes (caller c takes c, c + callers, ...), so inserts never
            # collide however often a long run wraps this list.
            params = None
        elif template_id == "filter_scan":
            params = rng.choice(scan_pool)
        elif template_id == "key_join":
            params = rng.choice(join_pool)
        else:
            params = _draw(template_id, rng, d)
        ops.append(make_op(template_id, params))
    return ops


HTTP_SHARES = {
    "key_lookup.supplier": 0.60, "filter_scan": 0.20, "key_join": 0.10,
    "big_result": 0.05, "insert_autocommit": 0.05,
}
CLUSTER_SHARES = {"key_lookup.supplier": 0.60, "filter_scan": 0.25, "key_join": 0.15}


def build_ops(workload: Workload, seed: int) -> list[list[Op]]:
    """The operation list of every caller, a pure function of the seed.

    Returns one list per caller.  For a phased workload the single list
    is one *round*.
    """
    d = Dims(*workload.scale)
    out = []
    for caller in range(workload.callers):
        rng = random.Random(seed * 1000 + caller)
        if workload.name == "point_local":
            ops = _point_ops(rng, d, workload.cycle)
        elif workload.name == "analytic_local":
            ops = _analytic_ops(rng, d, workload.cycle)
        elif workload.name == "adhoc_local":
            ops = _adhoc_ops(rng, d)
        elif workload.name == "write_local":
            ops = _write_round(rng, d)
        elif workload.name == "mixed_http":
            ops = _wire_ops(
                rng, d, workload.cycle // workload.callers, HTTP_SHARES, d.suppliers // 10
            )
        elif workload.name == "mixed_cluster":
            ops = _wire_ops(
                rng, d, workload.cycle // workload.callers, CLUSTER_SHARES, d.suppliers // 5
            )
        else:
            raise KeyError(workload.name)
        out.append(ops)
    return out


def ops_digest(per_caller: list[list[Op]]) -> str:
    """Stable digest of an operation list (``--selfcheck`` compares two)."""
    h = hashlib.sha256()
    for ops in per_caller:
        for op in ops:
            h.update(repr((op.cls, op.sql, op.params, op.mode, op.batch)).encode())
        h.update(b"|")
    return h.hexdigest()
