"""Join operators: nested-loop, hash, and sort-merge.

All joins use WHERE-clause equality for their keys: a NULL key never
matches anything (``NULL = NULL`` is UNKNOWN).  Hash and sort-merge
joins therefore drop NULL-keyed rows on both sides, matching what the
nested-loop join's predicate evaluation would do.

Join predicates and residuals are compiled to row closures when
possible (see :mod:`repro.engine.compile`); predicates containing
subqueries or outer references fall back to the shared evaluator.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

from ...errors import ResourceError
from ...sql.expressions import Expr
from ...sql.printer import to_sql
from ...types.values import key_extractor
from ..compile import RowTest
from ..schema import Scope
from .base import ExecContext, PlanNode, compile_row_test


def _no_flush() -> None:
    """Nothing counted, nothing to credit."""


def _residual_test(
    node: PlanNode,
    predicate: Expr | None,
    ctx: ExecContext,
    outer: Scope | None,
) -> tuple[RowTest | None, Callable[[], None]]:
    """A per-row test for a join residual, with its counter flush.

    Returns ``(test, flush)``; *test* is None when there is no residual.
    Compiles the predicate when possible (counting the compilation);
    otherwise *test* is an evaluator-backed closure with identical
    semantics.  The evaluator closure is also the verified fallback: a
    compilation failure, or a compiled closure dying mid-stream, swaps
    in the interpreter for the remaining rows.  Compiled evaluations
    are counted in the closure; the join credits them by calling
    *flush* once, in the ``finally`` of its row loop.
    """
    if predicate is None:
        return None, _no_flush
    stats = ctx.stats

    def interpret(row):
        scope = Scope(node.schema, row, outer=outer)
        return ctx.evaluator.qualifies(predicate, scope)

    compiled = compile_row_test(ctx, predicate, node.schema, outer)
    if compiled is None:
        return interpret, _no_flush
    evals = 0

    def test(row):
        nonlocal compiled, evals
        if compiled is None:
            return interpret(row)
        evals += 1
        try:
            return compiled(row)
        except ResourceError:
            raise
        except Exception:
            evals -= 1
            stats.compile_fallbacks += 1
            compiled = None
            return interpret(row)

    def flush():
        stats.predicate_evals += evals
        stats.compiled_evals += evals

    return test, flush


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

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        inner = list(self.right.rows(ctx, outer))
        qualifies, flush = _residual_test(self, self.predicate, ctx, outer)
        tick = ctx.tick
        joined = 0
        left_rows = self.left.rows(ctx, outer)
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
            flush()
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
        self.schema = left.schema.concat(right.schema)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _sides(self) -> tuple[PlanNode, PlanNode, list[int], list[int]]:
        """``(build, probe, build_keys, probe_keys)``."""
        if self.build_left:
            return self.left, self.right, self.left_keys, self.right_keys
        return self.right, self.left, self.right_keys, self.left_keys

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        build, probe, build_keys, probe_keys = self._sides()
        # A NULL key participates only at null-safe positions: anywhere
        # else it can never satisfy '=' and the kernel answers None.
        build_key = key_extractor(build_keys, self.null_safe)
        probe_key = key_extractor(probe_keys, self.null_safe)
        build_left = self.build_left
        tick = ctx.tick
        buckets: dict[tuple, list[tuple]] = {}
        builds = probes = joined = 0
        flush = _no_flush
        probe_rows = probe.rows(ctx, outer)
        try:
            for build_row in build.rows(ctx, outer):
                key = build_key(build_row)
                if key is None:
                    continue
                builds += 1
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [build_row]
                else:
                    bucket.append(build_row)

            qualifies, flush = _residual_test(self, self.residual, ctx, outer)
            matching = buckets.get
            for probe_row in probe_rows:
                key = probe_key(probe_row)
                if key is None:
                    continue
                probes += 1
                for build_row in matching(key, ()):
                    tick()
                    joined += 1
                    if build_left:
                        combined = build_row + probe_row
                    else:
                        combined = probe_row + build_row
                    if qualifies is None or qualifies(combined):
                        yield combined
        finally:
            stats = ctx.stats
            stats.hash_builds += builds
            stats.hash_probes += probes
            stats.rows_joined += joined
            flush()
            probe_rows.close()

    def label(self) -> str:
        keys = ", ".join(
            f"{self.left.schema.columns[l].name}={self.right.schema.columns[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        side = ", build=left" if self.build_left else ""
        return f"HashJoin({keys}{side})"


class SortMergeJoin(PlanNode):
    """Equi-join by sorting both inputs on the join keys and merging."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[int],
        right_keys: list[int],
        residual: Expr | None = None,
        null_safe: list[bool] | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("merge join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.null_safe = null_safe or [False] * len(left_keys)
        if len(self.null_safe) != len(left_keys):
            raise ValueError("null_safe flags must match the key lists")
        self.schema = left.schema.concat(right.schema)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        left_rows = self._sorted_input(ctx, self.left, self.left_keys, outer)
        right_rows = self._sorted_input(ctx, self.right, self.right_keys, outer)
        qualifies, flush = _residual_test(self, self.residual, ctx, outer)
        tick = ctx.tick
        joined = 0

        i = j = 0
        try:
            while i < len(left_rows) and j < len(right_rows):
                left_key, left_row = left_rows[i]
                right_key, right_row = right_rows[j]
                if left_key < right_key:
                    i += 1
                elif left_key > right_key:
                    j += 1
                else:
                    # Gather the group of equal keys on the right, join
                    # with every equal-keyed left row.
                    j_end = j
                    while j_end < len(right_rows) and right_rows[j_end][0] == left_key:
                        j_end += 1
                    while i < len(left_rows) and left_rows[i][0] == left_key:
                        _, current_left = left_rows[i]
                        for _, match in right_rows[j:j_end]:
                            tick()
                            joined += 1
                            combined = current_left + match
                            if qualifies is None or qualifies(combined):
                                yield combined
                        i += 1
                    j = j_end
        finally:
            ctx.stats.rows_joined += joined
            flush()

    def _sorted_input(
        self,
        ctx: ExecContext,
        child: PlanNode,
        keys: list[int],
        outer: Scope | None,
    ) -> list[tuple]:
        """``(key, row)`` pairs in key order, NULL-keyed rows dropped
        (except at null-safe positions)."""
        extract = key_extractor(keys, self.null_safe)
        rows = [
            (key, row)
            for row in child.rows(ctx, outer)
            if (key := extract(row)) is not None
        ]
        ctx.stats.sorts += 1
        ctx.stats.sort_rows += len(rows)
        rows.sort(key=itemgetter(0))
        return rows

    def label(self) -> str:
        keys = ", ".join(
            f"{self.left.schema.columns[l].name}={self.right.schema.columns[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"SortMergeJoin({keys})"


class HashSemiJoin(PlanNode):
    """Left semi-join: emit each left row with at least one key match.

    This is the engine-feature ablation for flattening EXISTS: instead of
    re-executing a correlated subquery per outer row, the inner input is
    hashed once.  Produces the *left* schema only.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: list[int],
        right_keys: list[int],
        negated: bool = False,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ValueError("semi join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.negated = negated
        self.schema = left.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        right_key = key_extractor(self.right_keys)
        left_key = key_extractor(self.left_keys)
        negated = self.negated
        tick = ctx.tick
        keys: set[tuple] = set()
        builds = probes = 0
        left_rows = self.left.rows(ctx, outer)
        try:
            for right_row in self.right.rows(ctx, outer):
                key = right_key(right_row)
                if key is not None:
                    builds += 1
                    keys.add(key)

            for left_row in left_rows:
                tick()
                key = left_key(left_row)
                if key is None:
                    matched = False
                else:
                    probes += 1
                    matched = key in keys
                if matched != negated:
                    yield left_row
        finally:
            ctx.stats.hash_builds += builds
            ctx.stats.hash_probes += probes
            left_rows.close()

    def label(self) -> str:
        kind = "HashAntiJoin" if self.negated else "HashSemiJoin"
        return f"{kind}({len(self.left_keys)} keys)"
