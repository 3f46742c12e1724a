"""Selection (filter) operator."""

from __future__ import annotations

from typing import Iterator

from itertools import chain

from ...errors import ResourceError
from ...sql.expressions import Expr
from ...sql.printer import to_sql
from ..columnar import batches_from_rows, compile_batch_filter
from ..schema import Scope
from .base import ExecContext, PlanNode, select_rows


class Filter(PlanNode):
    """Keeps rows whose predicate is definitely TRUE (⌊P⌋ semantics).

    Simple predicates are compiled once per execution into a row closure
    (no per-row Scope allocation or recursive dispatch); predicates the
    compiler rejects — subqueries, outer references — run through the
    shared evaluator, which re-executes correlated subqueries per input
    row through the reference interpreter, counting each invocation.

    The interpretive path doubles as the verified fallback: a failure in
    compilation, or in a compiled closure mid-stream, degrades to the
    evaluator for the remaining rows with identical semantics.
    """

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.batch_pipeline = child.batch_pipeline

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        return select_rows(
            ctx, self.predicate, self.schema, self.child.rows(ctx, outer), outer
        )

    # ------------------------------------------------------------------
    # vectorized path

    def _batches(self, ctx: ExecContext, outer: Scope | None = None):
        """Selection as a boolean mask over a batch-compiled predicate.

        The batch compiler has the same frontier as the row compiler:
        anything it rejects (subqueries, outer references) re-batches
        the tuple path, which is the verified semantics.  A kernel that
        dies mid-stream demotes this batch and every remaining one to
        the interpreter — the vectorized mirror of the compiled→
        interpreter ladder.
        """
        kernel = None
        if outer is None:
            try:
                kernel = compile_batch_filter(
                    self.predicate, self.schema, ctx.evaluator.params
                )
            except ResourceError:
                raise
            except Exception:
                # Batch compilation itself blew up (e.g. a ``compile``
                # fault): the re-batched tuple path below owns the
                # fallback accounting.
                ctx.stats.vectorized_fallbacks += 1
        if kernel is None:
            yield from PlanNode._batches(self, ctx, outer)
            return
        stats = ctx.stats
        stats.predicates_compiled += 1
        source = self.child.batches(ctx, outer)
        for batch in source:
            try:
                mask = kernel(batch)
            except ResourceError:
                raise
            except Exception:
                # Vectorized→interpreter demotion mid-stream: nothing
                # from this batch has been emitted, so it and the rest
                # of the stream run through the evaluator.
                stats.vectorized_fallbacks += 1
                stats.compile_fallbacks += 1
                yield from self._demoted_batches(ctx, outer, batch, source)
                return
            stats.predicate_evals += batch.length
            stats.compiled_evals += batch.length
            stats.vectorized_batches += 1
            stats.vectorized_rows += batch.length
            selected = batch.select(mask)
            if selected.length:
                yield selected

    def _demoted_batches(self, ctx: ExecContext, outer, failed, source):
        """Finish interpretively: the failed batch, then the rest."""
        evaluator = ctx.evaluator

        def kept_rows():
            for batch in chain((failed,), source):
                for row in batch.iter_rows():
                    scope = Scope(self.schema, row, outer=outer)
                    if evaluator.qualifies(self.predicate, scope):
                        yield row

        yield from batches_from_rows(
            kept_rows(), len(self.schema), ctx.batch_rows
        )

    def label(self) -> str:
        return f"Filter({to_sql(self.predicate)})"
