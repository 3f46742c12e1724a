"""SQL three-valued logic.

SQL predicates evaluate to one of three truth values: ``TRUE``, ``FALSE``
or ``UNKNOWN``.  The paper (Table 2) additionally defines two
*interpretations* that collapse ``UNKNOWN`` to a Boolean:

* the **false interpretation** ⌊P⌋ — ``UNKNOWN`` is treated as false;
  this is how ``WHERE`` clauses behave, and
* the **true interpretation** ⌈P⌉ — ``UNKNOWN`` is treated as true.

This module implements the truth values, Kleene connectives, and both
interpretations.
"""

from __future__ import annotations

import enum


class Tristate(enum.Enum):
    """A Kleene (strong) three-valued logic truth value."""

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    def __bool__(self) -> bool:
        raise TypeError(
            "Tristate cannot be coerced to bool implicitly; use "
            "false_interpreted() or true_interpreted()"
        )

    def __and__(self, other: "Tristate") -> "Tristate":
        return _AND[self._value_][other._value_]

    def __or__(self, other: "Tristate") -> "Tristate":
        return _OR[self._value_][other._value_]

    def __invert__(self) -> "Tristate":
        return _NOT[self._value_]

    def false_interpreted(self) -> bool:
        """The paper's ⌊P⌋: true only when the value is ``TRUE``.

        This is the interpretation SQL uses for ``WHERE`` and ``HAVING``
        clauses: a row qualifies only when the predicate is definitely
        true.
        """
        return self is Tristate.TRUE

    def true_interpreted(self) -> bool:
        """The paper's ⌈P⌉: true unless the value is ``FALSE``."""
        return self is not Tristate.FALSE

    @staticmethod
    def of(value: bool | None) -> "Tristate":
        """Lift an optional Boolean: ``None`` maps to ``UNKNOWN``."""
        if value is None:
            return Tristate.UNKNOWN
        return Tristate.TRUE if value else Tristate.FALSE


TRUE = Tristate.TRUE
FALSE = Tristate.FALSE
UNKNOWN = Tristate.UNKNOWN

# The Kleene connectives as lookup tables over the three singletons,
# filled once from the members and indexed by their values (FALSE 0 <
# UNKNOWN 1 < TRUE 2): AND is min, OR is max, NOT is 2 - x — without an
# ``Enum.__call__`` and two ``DynamicClassAttribute`` reads per node.
_BY_VALUE = (FALSE, UNKNOWN, TRUE)
_AND = tuple(tuple(_BY_VALUE[min(a, b)] for b in range(3)) for a in range(3))
_OR = tuple(tuple(_BY_VALUE[max(a, b)] for b in range(3)) for a in range(3))
_NOT = tuple(_BY_VALUE[2 - a] for a in range(3))


def all3(values) -> Tristate:
    """Three-valued conjunction of an iterable (empty => TRUE)."""
    result = TRUE
    for value in values:
        result = result & value
        if result is FALSE:
            break
    return result


def any3(values) -> Tristate:
    """Three-valued disjunction of an iterable (empty => FALSE)."""
    result = FALSE
    for value in values:
        result = result | value
        if result is TRUE:
            break
    return result
