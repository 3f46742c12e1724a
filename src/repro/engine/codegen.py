"""Generated row kernels: source text in, one compiled function out.

Run node by node, the tuple path pays a Python frame per row per
operator: the scan's generator, ``select_rows`` and its row test,
``Project``'s ``map``, the hash join's key kernels.  This module
assembles *source text* for the hottest of those loops fused into one,
and compiles each text once.  What fuses is the operators' decision
(:mod:`repro.engine.operators`); ⌊P⌋ as source is the row leaf set of
:func:`repro.engine.compile.lower_source`.  Three shapes are generated:

* the predicate of :mod:`repro.engine.compile` — ``is_true``,
  ``is_false`` and the three-valued ``verdict`` over a row ``r``, one
  frame per test;
* a **pipeline**: a ``SeqScan`` under at most one ``Filter``, or an
  ``IndexScan`` with its residual, under at most one ``Project``, as
  one generator over the scan's row list that pulls a chunk of
  :data:`TICK_CHUNK` rows, ticks it (under a guard), and yields
  ``[<projection> for r in chunk if <⌊P⌋>]``; :class:`ChunkedRows`
  hands the rows out through a C-level ``chain``;
* a **hash join**, with the ``Project`` above it if there is one: build,
  then probe, yielding each match's output row directly; on the row
  path a probe side that is a scan pipeline (an ``IndexScan`` too)
  runs inside the probe loop, and a build side served from its table's
  hash index runs no build loop at all.

Checkpoints are part of the shape.  A kernel calls ``tick`` only when
it is *guarded* — its execution has an
:class:`~repro.resilience.budgets.ExecutionGuard`.  Without one the
context's ``tick`` does nothing (nothing fuses while faults are armed),
so the unguarded kernel leaves the calls out; every ``Stats`` counter
is still counted as before.  A guarded kernel's text does not depend on
this rule.

No value or identifier from a statement is ever written into source.
A constant sits in an argument slot ``k0 … kn`` of the ``make`` factory
every source defines; everything else is built from integers (column
positions) and fixed text (:data:`repro.engine.compile.SPELLED`, the
templates below).  So all literal texts of one statement template
compile to the same source, and :data:`KERNELS`, keyed by the text,
holds one entry per plan *shape* (it is the ``kernels`` row of
:func:`repro.cache.cache_stats`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..cache import MISSING, LRUCache
from ..types.tristate import FALSE, TRUE, UNKNOWN
from ..types.values import _TYPE_RANK, NULL, comparable

#: Rows a pipeline pulls, ticks and accounts at a time (divides the
#: guard's CLOCK_CHECK_INTERVAL, so deadline checks stay on schedule).
TICK_CHUNK = 64

#: Every name generated code reads besides its slots and builtins.
#: ``rank`` is ``key_extractor``'s type-rank table: a join key is
#: ``(rank, value)`` exactly where the key kernel's would be.
_NAMESPACE = {
    "NULL": NULL,
    "comparable": comparable,
    "TRUE": TRUE,
    "FALSE": FALSE,
    "UNKNOWN": UNKNOWN,
    "rank": _TYPE_RANK.get,
}

#: Compiled ``make`` factories by source text.
KERNELS = LRUCache("kernels", maxsize=256)


def assemble(source: str) -> Callable[..., Any] | None:
    """The ``make`` factory *source* defines, compiled once per text.

    ``None`` when CPython refuses the text (a condition nested deeper
    than its parser allows): callers treat that as a refusal and take
    the per-node path.
    """
    make = KERNELS.get(source)
    if make is MISSING:
        namespace = dict(_NAMESPACE)
        try:
            code = compile(source, "<kernel>", "exec")
        except (SyntaxError, RecursionError, MemoryError):
            return None
        exec(code, namespace)
        make = namespace["make"]
        KERNELS.put(source, make)
    return make


class ChunkedRows:
    """The rows of a stream of row groups, closable like a generator.

    Iterating hands out a C-level ``chain`` over the groups, so a
    consumer pays no Python frame per row; :meth:`close` closes the
    group stream, so its ``finally`` has credited the counters before
    anyone reads them.
    """

    __slots__ = ("_groups", "_rows")

    def __init__(self, groups: Iterator[Iterable[tuple]]) -> None:
        self._groups = groups
        self._rows = chain.from_iterable(groups)

    def __iter__(self) -> Iterator[tuple]:
        return self._rows

    def __next__(self) -> tuple:
        return next(self._rows)

    def close(self) -> None:
        self._groups.close()


# ----------------------------------------------------------------------
# source text


def _factory(slots: int, lines: list[str]) -> str:
    """``def make(k0, …):`` around *lines* (each indented one level)."""
    head = "def make(%s):" % ", ".join("k%d" % i for i in range(slots))
    return "\n".join([head, *("    " + line for line in lines), ""])


def row_source(values: Iterable[str]) -> str:
    """A tuple display of *values* (``(r[3],)`` for one)."""
    values = list(values)
    return "(" + ", ".join(values) + ("," if len(values) == 1 else "") + ")"


def predicate_source(is_true: str, is_false: str, slots: int) -> str:
    """⌊P⌋, ⌊¬P⌋ and the verdict as three functions of the row ``r``."""
    return _factory(slots, [
        "def is_true(r):",
        f"    return {is_true}",
        "def is_false(r):",
        f"    return {is_false}",
        "def verdict(r):",
        f"    return TRUE if {is_true} else FALSE if {is_false} else UNKNOWN",
        "return is_true, is_false, verdict",
    ])


def pipeline_source(
    test: str | None,
    indices: Sequence[int] | None,
    slots: int,
    guarded: bool = True,
) -> str:
    """scan → filter → project over the table's row list.

    *test* is ⌊P⌋ over ``r`` (``None``: no ``Filter``), *indices* the
    projected positions (``None``: no ``Project``).  Every pulled row is
    one scanned row and, under a ``Filter``, one evaluation; a chunk is
    ticked only when *guarded*.
    """
    if test is None and indices is None:
        kept = "chunk"
    else:
        row = "r" if indices is None else row_source("r[%d]" % i for i in indices)
        where = "" if test is None else f" if {test}"
        kept = f"[{row} for r in chunk{where}]"
    evals = [] if test is None else [
        "        stats.predicate_evals += scanned",
        "        stats.compiled_evals += scanned",
    ]
    return _factory(slots, [
        "def pipeline(rows, tick, stats):",
        "    scanned = start = 0",
        "    try:",
        "        while True:",
        f"            chunk = rows[start:start + {TICK_CHUNK:d}]",
        "            if not chunk:",
        "                return",
        f"            start += {TICK_CHUNK:d}",
        *(["            tick(len(chunk))"] if guarded else []),
        "            scanned += len(chunk)",
        f"            yield {kept}",
        "    finally:",
        "        stats.rows_scanned += scanned",
        *evals,
        "return pipeline",
    ])


def _key_lines(
    row: str, index: int | None, wrap: bool = False, rank: int | None = None
) -> list[str]:
    """Set ``key`` for the row named *row*, or ``continue`` past it.

    *index* is the one strict key column, whose key is ``(rank,
    value)`` when the type has a rank — ``((rank, value),)`` with
    *wrap*, the shape of a hash index's keys.  A NULL (never a match)
    and an unranked value take the key kernel ``<row>_key``, whose keys
    are 1-tuples and so never equal an inline 2-tuple.  ``None``: the
    kernel keys every row (several columns, or a null-safe one).

    A *rank* says every value of the column has that rank (its type
    census holds no NULL and one rank): the key is built with it, and
    no row's type is looked up.
    """
    fallback = [f"key = {row}_key({row})", "if key is None:", "    continue"]
    if index is None:
        return fallback
    if rank is not None:
        key = f"({rank:d}, {row}[{index:d}])"
        return [f"key = ({key},)" if wrap else f"key = {key}"]
    return [
        f"v = {row}[{index:d}]",
        "t = rank(type(v))",
        "if t is None:",
        *("    " + line for line in fallback),
        "else:",
        "    key = ((t, v),)" if wrap else "    key = (t, v)",
    ]


def join_source(
    build_key: int | None,
    probe_key: int | None,
    row: str,
    scan: bool,
    residual: str | None,
    where: str | None,
    slots: int,
    index: bool = False,
    kept: str | None = None,
    guarded: bool = True,
    probe_rank: int | None = None,
) -> str:
    """Hash join: build over ``b``, probe over ``p``.

    *build_key*/*probe_key* as :func:`_key_lines`, *probe_rank* its
    *rank* for the probe key; *residual* is the residual's ⌊P⌋ and
    *row* the output row, both over ``b`` and ``p``.

    Every match is a checkpoint.  When *guarded* (see the module's
    checkpoint rule) the kernel counts them in ``unticked`` and ticks
    :data:`TICK_CHUNK` at a time, the rest after the last probe row —
    ``HashJoin``'s per-node schedule.

    With *scan*, ``probe_rows`` is a scan's row list (a table's, or an
    ``IndexScan``'s bucket) and the scan — and its filter, *where* over
    ``p`` — run inside the probe loop with the per-node scan and
    ``Filter``'s accounting: a :data:`TICK_CHUNK`-row tick as the
    chunk's last row is pulled, the rest after the last row, and one
    evaluation per pulled row.  So whichever way the join is left, its
    totals are the interpreter's.  Otherwise ``probe_rows`` is a
    stream, closed in ``finally``.

    With *index*, no build loop runs: ``build_rows`` is the build
    table's hash index (canonical key → rows), probed once per probe
    row.  Each fetched row is the checkpoint of its match, and a
    scanned row and an index row, as ``IndexScan`` counts it; *kept*
    is the build side's ``Filter`` over ``b``, tested once per fetched
    row.
    """
    emit = [f"yield {row}"]
    evals = []
    if residual is not None:
        emit = [f"if {residual}:", f"    yield {row}"]
        evals = ["joined"]
    pull, tail, account = [], [], ["probe_rows.close()"]
    if scan:
        pull = [
            f"if pending == {TICK_CHUNK - 1:d}:",
            *([f"    tick({TICK_CHUNK:d})"] if guarded else []),
            f"    scanned += {TICK_CHUNK:d}",
            "    pending = 0",
            "else:",
            "    pending += 1",
        ]
        if where is not None:
            pull += [f"if not {where}:", "    continue"]
            evals.append("scanned + pending")
        tail = [
            "if pending:",
            *(["    tick(pending)"] if guarded else []),
            "    scanned += pending",
            "    pending = 0",
        ]
        account = ["stats.rows_scanned += scanned"]
    if guarded:
        tail += ["if unticked:", "    tick(unticked)"]
    checkpoint = [
        "unticked += 1",
        f"if unticked == {TICK_CHUNK:d}:",
        f"    tick({TICK_CHUNK:d})",
        "    unticked = 0",
    ] if guarded else []
    build = [
        "buckets = {}",
        "for b in build_rows:",
        *("    " + line for line in _key_lines("b", build_key)),
        "    builds += 1",
        "    bucket = buckets.get(key)",
        "    if bucket is None:",
        "        buckets[key] = [b]",
        "    else:",
        "        bucket.append(b)",
        "matching = buckets.get",
    ]
    match = ["joined += 1"]
    if index:
        build = ["matching = build_rows.get"]
        match = ["fetched += 1"]
        if kept is not None:
            match += [f"if not {kept}:", "    continue"]
            evals.append("fetched")
        match.append("joined += 1")
        account += [
            "stats.index_probes += probes",
            "stats.index_rows += fetched",
            "stats.rows_scanned += fetched",
        ]
    for counted in evals:
        account += [
            f"stats.predicate_evals += {counted}",
            f"stats.compiled_evals += {counted}",
        ]
    return _factory(slots, [
        "def join(build_rows, probe_rows, tick, stats, b_key, p_key):",
        "    builds = probes = joined = scanned = pending = fetched = 0",
        *(["    unticked = 0"] if guarded else []),
        "    try:",
        *("        " + line for line in build),
        "        for p in probe_rows:",
        *("            " + line for line in pull),
        *(
            "            " + line
            for line in _key_lines("p", probe_key, index, probe_rank)
        ),
        "            probes += 1",
        "            for b in matching(key, ()):",
        *("                " + line for line in checkpoint),
        *("                " + line for line in match),
        *("                " + line for line in emit),
        *("        " + line for line in tail),
        "    finally:",
        "        stats.hash_builds += builds",
        "        stats.hash_probes += probes",
        "        stats.rows_joined += joined",
        *("        " + line for line in account),
        "return join",
    ])
