"""Multiset execution engine with three-valued logic."""

from .compile import compile_predicate, set_compilation_enabled
from .cost import CostModel, PlanEstimate
from .database import Database
from .evaluator import Evaluator
from .plan_cache import GLOBAL_PLAN_CACHE, PlanCache
from .planner import Planner, PlannerOptions, execute_plan, execute_planned
from .result import Result
from .schema import ColumnInfo, RelSchema, Scope
from .stats import Stats
from .table_data import TableData

__all__ = [
    "ColumnInfo",
    "CostModel",
    "GLOBAL_PLAN_CACHE",
    "PlanCache",
    "PlanEstimate",
    "Database",
    "Evaluator",
    "Planner",
    "PlannerOptions",
    "RelSchema",
    "Result",
    "Scope",
    "Stats",
    "TableData",
    "compile_predicate",
    "execute_plan",
    "execute_planned",
    "set_compilation_enabled",
]
