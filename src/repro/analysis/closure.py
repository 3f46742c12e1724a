"""Bound-attribute transitive closure (Algorithm 1, lines 13–16).

Starting from the projection attributes, an attribute becomes *bound*
when it is equated with a constant (Type 1) or — transitively — with an
already-bound attribute (Type 2).  A bound attribute is functionally
determined by the query result: two result rows that agree on the
projection necessarily agree on every bound attribute.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .attributes import Attribute, AttributeSet
from .conditions import Equality, Type1, Type2


def bound_closure(
    seed: Iterable[Attribute], equalities: Sequence[Equality]
) -> AttributeSet:
    """The set V of Algorithm 1: seed attributes plus every attribute
    reachable through Type 1 bindings and Type 2 equality chains."""
    bound: set[Attribute] = set(seed)
    for equality in equalities:
        if isinstance(equality, Type1):
            bound.add(equality.attribute)

    pairs = [
        (equality.left, equality.right)
        for equality in equalities
        if isinstance(equality, Type2)
    ]
    changed = True
    while changed:
        changed = False
        for left, right in pairs:
            if left in bound and right not in bound:
                bound.add(right)
                changed = True
            elif right in bound and left not in bound:
                bound.add(left)
                changed = True
    return frozenset(bound)

