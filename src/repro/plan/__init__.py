"""Logical query model and physical operators."""

from repro.plan.joins import EFFECT_NAMES, MATCHING_EFFECT_NAMES, Join, JoinKeySpec
from repro.plan.logical import (
    AggregateFunction,
    AnyQuerySpec,
    CompoundQuerySpec,
    JoinStep,
    JoinType,
    OrderItem,
    QuerySpec,
    SelectItem,
    SetOperator,
    TableRef,
)
from repro.plan.operators import Filter, Limit, Materialize, Project, Sort, TableScan
from repro.plan.physical import (
    ExecRow,
    ExecutionHooks,
    JoinAlgorithm,
    PhysicalOperator,
    TriggerContext,
)

__all__ = [
    "AggregateFunction",
    "AnyQuerySpec",
    "CompoundQuerySpec",
    "EFFECT_NAMES",
    "MATCHING_EFFECT_NAMES",
    "ExecRow",
    "ExecutionHooks",
    "Filter",
    "Join",
    "JoinAlgorithm",
    "JoinKeySpec",
    "JoinStep",
    "JoinType",
    "Limit",
    "Materialize",
    "OrderItem",
    "PhysicalOperator",
    "Project",
    "QuerySpec",
    "SelectItem",
    "SetOperator",
    "Sort",
    "TableRef",
    "TableScan",
    "TriggerContext",
]
