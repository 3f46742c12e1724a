"""Join operators: nested-loop and hash.

All joins use WHERE-clause equality for their keys: a NULL key never
matches anything (``NULL = NULL`` is UNKNOWN).  A hash join therefore
drops NULL-keyed rows on both sides, matching what the nested-loop
join's predicate evaluation would do.

Node by node, join predicates and residuals are judged by the shared
evaluator.  A hash join — with the ``Project`` above it, if any — also
has a fused form: build, probe, residual and projection in one
generated function, with the probe side's scan and filter inside it
(:meth:`HashJoin._fused`).  A hash join whose build side is a table
with a hash index over its keys probes that index instead of building
a table of its own.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Iterator

from ...errors import ResourceError
from ...sql.expressions import Expr
from ...sql.printer import to_sql
from ...types.values import census_rank, key_extractor
from ..codegen import TICK_CHUNK, join_source, row_source
from ..schema import Scope
from .base import ExecContext, PlanNode
from .filter import scan_pipeline


def _residual_test(
    node: PlanNode, predicate: Expr | None, ctx: ExecContext
) -> Callable[[tuple], bool] | None:
    """The evaluator's test of *predicate* over a row of *node* (it
    counts each evaluation), or ``None`` when there is no predicate."""
    if predicate is None:
        return None
    schema, qualifies = node.schema, ctx.evaluator.qualifies
    return lambda row: qualifies(predicate, Scope(schema, row))


class NestedLoopJoin(PlanNode):
    """Cartesian product with an optional join predicate.

    The inner input is materialized once; the outer streams.  With no
    predicate this is the paper's extended Cartesian product.
    """

    def __init__(
        self, left: PlanNode, right: PlanNode, predicate: Expr | None = None
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @cached_property
    def lineage(self) -> tuple:
        return self.left.lineage + self.right.lineage

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        inner = list(self.right.rows(ctx))
        qualifies = _residual_test(self, self.predicate, ctx)
        tick = ctx.tick
        joined = 0
        left_rows = self.left.rows(ctx)
        try:
            for left_row in left_rows:
                for right_row in inner:
                    tick()
                    joined += 1
                    combined = left_row + right_row
                    if qualifies is None or qualifies(combined):
                        yield combined
        finally:
            ctx.stats.rows_joined += joined
            left_rows.close()

    def label(self) -> str:
        if self.predicate is None:
            return "NestedLoopJoin(cross)"
        return f"NestedLoopJoin({to_sql(self.predicate)})"


class HashJoin(PlanNode):
    """Equi-join via a hash table built on one input.

    A key position may be marked *null-safe* (the ≐ operator, SQL's
    IS NOT DISTINCT FROM): NULL keys then match NULL keys instead of
    matching nothing.  The planner emits null-safe keys for the
    correlation predicates Theorem 3 generates.

    The build side defaults to the right input; the planner flips it
    (``build_left=True``) when the cost model estimates the left input
    is smaller, so the hash table is built on the cheaper side.  Output
    is a multiset either way — only enumeration order changes.

    With *index* — the build table's columns, in build-key order — the
    build side is a scan pipeline (a ``SeqScan`` under at most one
    ``Filter``) and the table's own hash index over those columns *is*
    the hash table: no build loop runs, each probe fetches its bucket
    (a scanned row and an index row per fetched row, as ``IndexScan``
    counts them) and the build side's filter is tested on each fetched
    row.  A fetched row is one checkpoint, whether or not it matches.
    Output is then in probe order, each probe's matches in table order.

    Checkpoints (a match, or a fetched row) are ticked
    :data:`~repro.engine.codegen.TICK_CHUNK` at a time, the rest after
    the last probe row; while faults are armed, one by one.
    Should the index fail to build, the per-node path hashes the build
    input instead (``index_fallbacks``).
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[int],
        right_keys: list[int],
        residual: Expr | None = None,
        null_safe: list[bool] | None = None,
        build_left: bool = False,
        index: tuple[str, ...] | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("hash join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.null_safe = null_safe or [False] * len(left_keys)
        if len(self.null_safe) != len(left_keys):
            raise ValueError("null_safe flags must match the key lists")
        self.build_left = build_left
        self.index = index
        if index is not None and (
            scan_pipeline(self._sides()[0]) is None or len(index) != len(left_keys)
        ):
            raise ValueError("an index join needs a scanned build side keyed by it")
        self.schema = left.schema.concat(right.schema)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @cached_property
    def lineage(self) -> tuple:
        return self.left.lineage + self.right.lineage

    def _sides(self) -> tuple[PlanNode, PlanNode, list[int], list[int]]:
        """``(build, probe, build_keys, probe_keys)``."""
        if self.build_left:
            return self.left, self.right, self.left_keys, self.right_keys
        return self.right, self.left, self.right_keys, self.left_keys

    def _index(self, ctx: ExecContext) -> dict[tuple, list[tuple]] | None:
        """The build table's hash index over :attr:`index`, or ``None``
        when building it fails with anything but a ``ResourceError``."""
        scan, _ = scan_pipeline(self._sides()[0])
        try:
            return ctx.database.table(scan.table_name).hash_index(self.index)
        except ResourceError:
            raise
        except Exception:
            return None

    def _rows(self, ctx: ExecContext) -> Iterator[tuple]:
        build, probe, _, _ = self._sides()
        build_key, probe_key = self._key_kernels
        build_left = self.build_left
        tick = ctx.tick
        buckets = None if self.index is None else self._index(ctx)
        indexed = buckets is not None
        if self.index is not None and not indexed:
            ctx.stats.index_fallbacks += 1
        builds = probes = joined = fetched = unticked = 0
        kept = None
        probe_rows = probe.rows(ctx)
        try:
            if indexed:
                kept = _residual_test(build, scan_pipeline(build)[1], ctx)
            else:
                buckets = {}
                for build_row in build.rows(ctx):
                    key = build_key(build_row)
                    if key is None:
                        continue
                    builds += 1
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [build_row]
                    else:
                        bucket.append(build_row)

            qualifies = _residual_test(self, self.residual, ctx)
            matching = buckets.get
            for probe_row in probe_rows:
                key = probe_key(probe_row)
                if key is None:
                    continue
                probes += 1
                for build_row in matching(key, ()):
                    unticked += 1
                    if unticked == TICK_CHUNK or not ctx.batch_ticks:
                        tick(unticked)
                        unticked = 0
                    if indexed:
                        fetched += 1
                        if kept is not None and not kept(build_row):
                            continue
                    joined += 1
                    if build_left:
                        combined = build_row + probe_row
                    else:
                        combined = probe_row + build_row
                    if qualifies is None or qualifies(combined):
                        yield combined
            if unticked:
                tick(unticked)
        finally:
            stats = ctx.stats
            stats.hash_builds += builds
            stats.hash_probes += probes
            stats.rows_joined += joined
            if indexed:
                stats.index_probes += probes
                stats.index_rows += fetched
                stats.rows_scanned += fetched
            probe_rows.close()

    def _fused(
        self,
        ctx: ExecContext,
        node: PlanNode | None = None,
        indices: list[int] | None = None,
    ) -> Iterator[tuple] | None:
        """The join — projected onto *indices* for the ``Project``
        *node* above it — as one generated generator: the rows, the
        counters and the checkpoints of :meth:`_rows`.

        A probe side that is a scan pipeline (a ``SeqScan`` under at
        most one ``Filter``, or an ``IndexScan`` with its residual)
        runs inside the probe loop over its row list, accounted as
        the per-node scan and filter would be; an :attr:`index` join
        probes the build table's index and tests the build side's
        filter on each fetched row.  Should the index fail to build,
        the hashing kernel runs instead, as :meth:`_rows` hashes: one
        build attempt per execution.
        ``None`` when ``_lower`` refuses the residual or a filter.

        Under an analysis sink the probe side is a stream, opened (and
        observed) through ``rows``, and the join with its ``Project``
        is one observed unit.
        """
        build, probe, _, _ = self._sides()
        analysis = ctx.analysis
        scan = None if analysis is not None else scan_pipeline(probe, indexed=True)
        indexed = self.index is not None
        # The tables whose rows the kernel reads itself: their censuses
        # shape it, taken again after those rows are read.
        table = ctx.database.table
        probed = None if scan is None else table(scan[0].table_name)
        built = table(scan_pipeline(build)[0].table_name) if indexed else None
        census = _census(probed), _census(built)
        join = self._kernel(ctx, node, indices, scan, indexed, census)
        if join is None:
            return None
        if not indexed:
            build_rows = build.rows(ctx)
        else:
            build_rows = self._index(ctx)
            if build_rows is None:
                ctx.stats.index_fallbacks += 1
                built = None
                census = census[0], None
                join = self._kernel(ctx, node, indices, scan, False, census)
                build_rows = build.rows(ctx)
        if scan is None:
            probe_rows = probe.rows(ctx)
        else:
            probe_rows = scan[0]._source(ctx)
        if _census(probed) is not census[0] or _census(built) is not census[1]:
            # A write widened a census between the reads: the rows may
            # hold a type the kernel was not chosen for.
            census = _census(probed), _census(built)
            join = self._kernel(ctx, node, indices, scan, built is not None, census)
            if join is None:
                return None
        build_key, probe_key = self._key_kernels
        rows = join(build_rows, probe_rows, ctx.tick, ctx.stats, build_key, probe_key)
        if analysis is None:
            return rows
        return analysis.observe(node or self, rows, () if node is None else (self,))

    def _kernel(
        self,
        ctx: ExecContext,
        node: PlanNode | None,
        indices: list[int] | None,
        scan: tuple | None,
        indexed: bool,
        census: tuple,
    ) -> Callable[..., Iterator[tuple]] | None:
        """The generated join of :meth:`_fused` over the probe side's
        *scan* pipeline (``None``: a stream), probing the build
        table's index if *indexed*, else hashing the build input; it
        ticks only if *ctx* has a guard.

        *census* holds the type census of the probe scan's table and
        of the indexed build table (``None``: the side is a stream).
        The probe side's filter, the build side's and the residual's
        columns on those sides are lowered under it, and a probe key
        column it shows NULL-free and of one type rank is keyed with
        that rank inline.
        """
        build, probe, _, _ = self._sides()
        probe_types, build_types = census
        where = None if scan is None else scan[1]
        kept = scan_pipeline(build)[1] if indexed else None
        variant = (scan is not None, indexed, ctx.guard is not None)
        joined = None
        if self.residual is not None:
            left, right = probe_types, build_types
            if self.build_left:
                left, right = right, left
            joined = (left or (None,) * len(self.left.schema)) + (
                right or (None,) * len(self.right.schema)
            )
        return (node or self)._generated(
            ctx,
            partial(self._join_source, indices, *variant, probe_types),
            (self.residual, self.schema, self._column, joined),
            (where, probe.schema, lambda index: "p[%d]" % index, probe_types),
            (kept, build.schema, lambda index: "b[%d]" % index, build_types),
            variant=variant,
            census=census,
        )

    @cached_property
    def _key_kernels(self) -> tuple[Callable, Callable]:
        """``key_extractor`` of the build and the probe side.  A NULL key
        participates only at null-safe positions: anywhere else it can
        never satisfy '=' and the kernel answers None.  The probe keys
        are the canonical keys a table's hash index is keyed by."""
        _, _, build_keys, probe_keys = self._sides()
        return (
            key_extractor(build_keys, self.null_safe),
            key_extractor(probe_keys, self.null_safe),
        )

    def _column(self, index: int) -> str:
        """A position of the joined row, spelled over the build row
        ``b`` or the probe row ``p``."""
        width = len(self.left.schema)
        left = index < width
        side = "b" if left == self.build_left else "p"
        return "%s[%d]" % (side, index if left else index - width)

    def _join_source(
        self,
        indices: list[int] | None,
        scan: bool,
        indexed: bool,
        guarded: bool,
        probe_types: tuple | None,
        residual: str | None,
        where: str | None,
        kept: str | None,
        slots: int,
    ) -> str:
        _, _, build_keys, probe_keys = self._sides()
        if indices is None:
            row = "b + p" if self.build_left else "p + b"
        else:
            row = row_source(map(self._column, indices))
        # One strict key column is keyed inline; the rest by the kernels.
        inline = len(build_keys) == 1 and not self.null_safe[0]
        rank = None
        if inline and probe_types is not None:
            rank = census_rank(probe_types[probe_keys[0]])
        return join_source(
            build_keys[0] if inline else None,
            probe_keys[0] if inline else None,
            row,
            scan,
            residual,
            where,
            slots,
            indexed,
            kept,
            guarded,
            rank,
        )

    def label(self) -> str:
        keys = ", ".join(
            f"{self.left.schema.columns[l].name}={self.right.schema.columns[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        side = ", build=left" if self.build_left else ""
        if self.index is not None:
            table = scan_pipeline(self._sides()[0])[0].table_name
            side += f", index={table}({', '.join(self.index)})"
        return f"HashJoin({keys}{side})"


def _census(data) -> tuple | None:
    """The type census of the table *data* (``None`` for ``None``)."""
    return None if data is None else data.census
