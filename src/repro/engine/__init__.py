"""Multiset execution engine with three-valued logic."""

from .columnar import (
    DEFAULT_BATCH_ROWS,
    ENGINE_MODES,
    ColumnBatch,
    compile_batch_filter,
    compile_batch_predicate,
    default_engine_mode,
    resolve_engine_mode,
    set_default_engine_mode,
)
from .compile import compile_filter, compile_predicate, set_compilation_enabled
from .cost import CostModel, PlanEstimate
from .database import Database
from .evaluator import Evaluator
from .executor import Executor, execute
from .plan_cache import GLOBAL_PLAN_CACHE, PlanCache
from .planner import Planner, PlannerOptions, execute_plan, execute_planned
from .result import Result
from .schema import ColumnInfo, RelSchema, Scope
from .stats import Stats
from .table_data import TableData

__all__ = [
    "ColumnBatch",
    "ColumnInfo",
    "CostModel",
    "DEFAULT_BATCH_ROWS",
    "ENGINE_MODES",
    "GLOBAL_PLAN_CACHE",
    "PlanCache",
    "PlanEstimate",
    "Database",
    "Evaluator",
    "Executor",
    "Planner",
    "PlannerOptions",
    "RelSchema",
    "Result",
    "Scope",
    "Stats",
    "TableData",
    "compile_batch_filter",
    "compile_batch_predicate",
    "compile_filter",
    "compile_predicate",
    "default_engine_mode",
    "execute",
    "execute_plan",
    "execute_planned",
    "resolve_engine_mode",
    "set_compilation_enabled",
    "set_default_engine_mode",
]
