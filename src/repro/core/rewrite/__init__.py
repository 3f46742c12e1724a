"""Semantic rewrite rules and the tracing optimizer."""

from .base import RewriteContext, RewriteStep, Rule, rename_alias
from .distinct_elimination import DistinctElimination
from .engine import (
    OptimizeResult,
    Optimizer,
    navigational_rules,
    optimize,
    quarantine_rule,
    quarantined_rules,
    relational_rules,
    unquarantine_all,
)
from .join_elimination import JoinElimination
from .join_to_subquery import JoinToSubquery
from .setop_to_exists import ExceptToNotExists, IntersectToExists
from .subquery_to_join import InToExists, SubqueryToJoin

__all__ = [
    "DistinctElimination",
    "ExceptToNotExists",
    "InToExists",
    "IntersectToExists",
    "JoinElimination",
    "JoinToSubquery",
    "OptimizeResult",
    "Optimizer",
    "RewriteContext",
    "RewriteStep",
    "Rule",
    "SubqueryToJoin",
    "navigational_rules",
    "optimize",
    "quarantine_rule",
    "quarantined_rules",
    "relational_rules",
    "rename_alias",
    "unquarantine_all",
]
