"""Scatter-gather classification and order-preserving result merging.

Every worker holds a full replica, so a scatter query is the *same* SQL
sent to all shards with one extra execution option: a ``scan_ranges``
slice of the driving table T (shard *s* of *N* sees rows
``[floor(sR/N), floor((s+1)R/N))``).  Correctness then rests on two
things this module owns:

1. **Classification** — is the worker-side physical plan shaped so that
   per-slice outputs can be recombined into exactly the single-node
   output?  The classifier mirrors the worker's planning pipeline
   (relational rewrite rules + the default planner) and walks the plan
   from the root:

   * *concat mode*: T sits on the order-driving path (Filter/Project
     child, NestedLoopJoin outer, HashSemiJoin left) with no
     sort/distinct/set-op on the path — shard outputs concatenated in
     shard order equal the single-node row stream.  Hash and merge
     joins are excluded here: the hash build side is chosen from live
     cardinalities, which a slice changes, and a flipped build side
     flips the output order.
   * *set mode*: the plan ends in a sort-based DISTINCT (or a
     non-``ALL`` INTERSECT/EXCEPT), whose output is canonically sorted
     and duplicate-free — order below is irrelevant, so any join tree
     qualifies as long as slicing distributes over it set-wise (the one
     exception: an anti semi-join probed against the slice).
   * a trailing ORDER BY in either mode becomes a merge-side stable
     sort with the operator's exact key function.

   Anything else returns ``None`` and the front end falls back to
   routing the whole query to a single shard — always correct on
   replicas.

2. **Merging** — :func:`merge_shard_rows` recombines shard outputs.
   Stable-sorting the concatenation of per-shard-sorted lists equals
   stable-sorting the full list (ties across shards resolve in shard
   order, which *is* concatenation order), so the merge is byte-
   identical to single-node execution; the byte-identity suite pins
   this across Examples E1–E11.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rewrite.engine import Optimizer
from ..engine.operators import (
    Filter,
    HashDistinct,
    HashJoin,
    HashSemiJoin,
    IndexScan,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    SortDistinct,
    SortMergeJoin,
    SortSetOp,
)
from ..engine.planner import Planner, PlannerOptions
from ..sql.ast import Query, SetOpKind
from ..sql.parser import parse_query
from ..types.values import row_sort_key, sort_key
from .routing import subquery_reference_counts, table_reference_counts

__all__ = [
    "MergeSpec",
    "classify_scatter",
    "merge_shard_rows",
    "partition_ranges",
]


@dataclass(frozen=True)
class MergeSpec:
    """How to recombine per-shard outputs for one classified query.

    ``mode``:
        * ``"concat"`` — concatenate shard outputs in shard order.
        * ``"concat_dedup"`` — concatenate, then streaming
          first-occurrence dedup (mirrors a hash DISTINCT root).
        * ``"set"`` — sort the union by canonical full-row key and drop
          adjacent duplicates (mirrors a sort DISTINCT / non-ALL
          INTERSECT / EXCEPT root).

    ``order_keys`` — ``(position, ascending)`` pairs of a trailing
    ORDER BY, applied as a final stable sort; None when the plan has no
    Sort root.
    """

    table: str
    mode: str
    order_keys: tuple[tuple[int, bool], ...] | None = None


def partition_ranges(
    total_rows: int, shards: int
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` row ranges, one per shard."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return [
        (total_rows * shard // shards, total_rows * (shard + 1) // shards)
        for shard in range(shards)
    ]


def classify_scatter(
    query: Query | str,
    database,
    *,
    optimize: bool = True,
) -> MergeSpec | None:
    """Classify *query* for scatter-gather against *database*'s catalog.

    Mirrors the worker execution pipeline exactly — the same relational
    rewrite rules when ``optimize`` is on, then the default planner
    over the catalog — so the plan inspected here is the plan every
    replica shard will run.  Returns the :class:`MergeSpec` for the
    first (largest) table that qualifies as the driving table, or None
    when the query must fall back to single-shard routing.
    """
    if isinstance(query, str):
        try:
            query = parse_query(query)
        except Exception:
            return None  # let the worker produce the real parse error
    if optimize:
        try:
            query = Optimizer.for_relational(database.catalog).optimize(query).query
        except Exception:
            return None
    counts = table_reference_counts(query)
    inner = subquery_reference_counts(query)
    candidates = [
        name
        for name, count in counts.items()
        if count == 1 and inner.get(name, 0) == 0 and database.has_table(name)
    ]
    if not candidates:
        return None
    # Prefer slicing the largest table: that is where scatter pays.
    candidates.sort(key=lambda name: (-len(database.table(name)), name))
    try:
        # database= mirrors the worker's planner: the cost model picks
        # hash-join build sides from live cardinalities, and the sliced
        # view reports base-table cardinality, so front end and every
        # shard all derive the identical plan.
        plan = Planner(
            database.catalog, PlannerOptions(), database=database
        ).plan(query)
    except Exception:
        return None
    for table in candidates:
        spec = _classify_plan(plan, table)
        if spec is not None:
            return spec
    return None


# ---------------------------------------------------------------------------
# plan classification


def _classify_plan(plan: PlanNode, table: str) -> MergeSpec | None:
    node = plan
    if isinstance(node, SortSetOp):
        if node.all_rows or node.kind not in (
            SetOpKind.INTERSECT,
            SetOpKind.EXCEPT,
        ):
            return None
        # T may drive the left operand only: EXCEPT subtracts the right
        # side, and "rows missing from a slice" does not distribute.
        if _scans_table(node.right, table):
            return None
        if not _scans_table(node.left, table):
            return None
        if not _set_decomposable(node.left, table):
            return None
        return MergeSpec(table=table, mode="set")

    order_keys: tuple[tuple[int, bool], ...] | None = None
    if isinstance(node, Sort):
        order_keys = tuple(
            (int(position), bool(asc))
            for position, asc in zip(node.key_positions, node.ascending)
        )
        node = node.child

    if isinstance(node, SortDistinct):
        if _scans_table(node.child, table) and _set_decomposable(
            node.child, table
        ):
            return MergeSpec(table=table, mode="set", order_keys=order_keys)
        return None
    if isinstance(node, HashDistinct):
        if _scans_table(node.child, table) and _concat_decomposable(
            node.child, table
        ):
            return MergeSpec(
                table=table, mode="concat_dedup", order_keys=order_keys
            )
        return None
    if _scans_table(node, table) and _concat_decomposable(node, table):
        return MergeSpec(table=table, mode="concat", order_keys=order_keys)
    return None


def _scans_table(node: PlanNode, table: str) -> bool:
    if isinstance(node, (SeqScan, IndexScan)) and node.table_name == table:
        return True
    return any(_scans_table(child, table) for child in node.children())


def _concat_decomposable(node: PlanNode, table: str) -> bool:
    """Is the node's row *stream* the concatenation of per-slice streams?

    True only when T sits on the order-driving path and nothing on that
    path reorders, dedups, or rebalances rows.  Subtrees that do not
    scan T are identical on every shard and need no inspection.
    """
    if isinstance(node, (SeqScan, IndexScan)):
        return node.table_name == table
    if isinstance(node, (Filter, Project)):
        return _concat_decomposable(node.child, table)
    if isinstance(node, NestedLoopJoin):
        # Output streams the outer (left) side; the inner side is
        # re-enumerated per outer row, so T must drive from the left.
        if _scans_table(node.right, table):
            return False
        return _concat_decomposable(node.left, table)
    if isinstance(node, HashSemiJoin):
        # Semi/anti joins emit left rows in left order; the right side
        # only gates membership.
        if _scans_table(node.right, table):
            return False
        return _concat_decomposable(node.left, table)
    if isinstance(node, HashJoin):
        # Output order follows the probe side.  The build-side choice
        # is replica-deterministic (sliced tables report base-table
        # cardinality to the cost model), so T may drive from the
        # probe subtree; the build side must be shard-constant.
        probe = node.right if node.build_left else node.left
        build = node.left if node.build_left else node.right
        if _scans_table(build, table):
            return False
        return _concat_decomposable(probe, table)
    # SortMergeJoin sorts both inputs (a slice sorts locally, not
    # globally).  Sort/Distinct/SetOp reorder or collapse across slice
    # boundaries.  All unsafe for concatenation.
    return False


def _set_decomposable(node: PlanNode, table: str) -> bool:
    """Does slicing T distribute over the subtree *as a set*?

    The caller guarantees the merged output passes through a sorted
    DISTINCT, so only set equality matters: joins are bilinear,
    filters/projections/distincts/sorts are pointwise or set-identity,
    and set operations distribute except where a slice appears on the
    subtrahend side (EXCEPT right) or under negation (anti join right).
    """
    if not _scans_table(node, table):
        return True  # constant subtree: identical on every shard
    if isinstance(node, (SeqScan, IndexScan)):
        return True
    if isinstance(node, (Filter, Project, Sort, SortDistinct, HashDistinct)):
        return _set_decomposable(node.child, table)
    if isinstance(node, (NestedLoopJoin, HashJoin, SortMergeJoin)):
        side = node.left if _scans_table(node.left, table) else node.right
        return _set_decomposable(side, table)
    if isinstance(node, HashSemiJoin):
        if _scans_table(node.right, table):
            # join(A, ∪ B_s) = ∪ join(A, B_s) holds for semi joins but
            # not for anti joins: "no match in a slice" ≠ "no match".
            if node.negated:
                return False
            return _set_decomposable(node.right, table)
        return _set_decomposable(node.left, table)
    if isinstance(node, SortSetOp):
        in_left = _scans_table(node.left, table)
        side = node.left if in_left else node.right
        if node.kind is SetOpKind.UNION:
            return _set_decomposable(side, table)
        if node.kind is SetOpKind.INTERSECT:
            return _set_decomposable(side, table)
        # EXCEPT: distributes over the left operand only, and only in
        # its DISTINCT form — with ALL, count_A(r) > count_B(r) can
        # hold in total while no single slice's count does.
        if not in_left or node.all_rows:
            return False
        return _set_decomposable(side, table)
    return False


# ---------------------------------------------------------------------------
# merging


def merge_shard_rows(
    spec: MergeSpec, shard_rows: list[list[tuple]]
) -> list[tuple]:
    """Recombine per-shard outputs (in shard-id order) per *spec*."""
    merged: list[tuple] = []
    for rows in shard_rows:
        merged.extend(tuple(row) for row in rows)

    if spec.mode == "set":
        merged.sort(key=row_sort_key)
        deduped: list[tuple] = []
        last_key = None
        for row in merged:
            key = row_sort_key(row)
            if key != last_key:
                deduped.append(row)
                last_key = key
        merged = deduped
    elif spec.mode == "concat_dedup":
        seen: set = set()
        deduped = []
        for row in merged:
            key = row_sort_key(row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        merged = deduped
    elif spec.mode != "concat":
        raise ValueError(f"unknown merge mode {spec.mode!r}")

    if spec.order_keys:
        from ..engine.executor import _Reversed

        def key_fn(row: tuple):
            parts = []
            for position, asc in spec.order_keys:
                key = sort_key(row[position])
                parts.append(key if asc else _Reversed(key))
            return tuple(parts)

        merged.sort(key=key_fn)
    return merged
