"""Compiler layer: breakpoint splitting, lowering passes and execution."""

from .executor import BreakpointExecutor, BreakpointMeasurements, ObservableMeasurements
from .plan_cache import (
    PlanCache,
    SnapshotSet,
    default_plan_cache,
    program_fingerprint,
)
from .passes import (
    ResourceReport,
    ValidationIssue,
    decompose_controlled_phases,
    decompose_controlled_rotations,
    decompose_multi_controls,
    decompose_toffoli,
    lower_to_basis,
    resource_report,
    validate_program,
)
from .splitter import ExecutionPlan, PlanSegment, build_execution_plan

__all__ = [
    "PlanSegment",
    "ExecutionPlan",
    "build_execution_plan",
    "BreakpointExecutor",
    "BreakpointMeasurements",
    "ObservableMeasurements",
    "PlanCache",
    "SnapshotSet",
    "default_plan_cache",
    "program_fingerprint",
    "decompose_toffoli",
    "decompose_controlled_rotations",
    "decompose_controlled_phases",
    "decompose_multi_controls",
    "lower_to_basis",
    "validate_program",
    "ValidationIssue",
    "resource_report",
    "ResourceReport",
]
