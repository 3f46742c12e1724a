"""Physical plan operators."""

from .base import ExecContext, PlanNode
from .filter import Filter
from .joins import HashJoin, NestedLoopJoin
from .project import Project, Sort, SortDistinct
from .scan import IndexScan, SeqScan
from .setops import SortSetOp

__all__ = [
    "ExecContext",
    "Filter",
    "HashJoin",
    "IndexScan",
    "NestedLoopJoin",
    "PlanNode",
    "Project",
    "SeqScan",
    "Sort",
    "SortDistinct",
    "SortSetOp",
]
