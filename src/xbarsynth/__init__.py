"""Partial crossbar synthesis from communication traces.

Pipeline: load or generate a trace, profile it over fixed windows, derive
the pairwise overlap and conflict matrices, search the minimum feasible
bus count, bind targets to buses minimizing worst per-bus overlap, and
validate the result with a cycle-level contention simulator.
"""

from .analysis import (
    AnalysisParams,
    WindowProfile,
    aggregate_overlap,
    preprocess,
    profile,
    validate_profile,
)
from .gen import GenError, GenSpec, benchmark_preset, generate, spec_from_text, spec_to_text
from .lpexport import export_milp
from .sim import CompareRow, SimReport, baseline_configs, compare, simulate
from .solver import (
    BandwidthInfeasibleError,
    CrossbarConfig,
    InfeasibleError,
    InstanceError,
    ProblemInstance,
    SearchBudget,
    SolveReport,
    SolverLimitReached,
    SolverLimits,
    binding_maxov,
    build_instance,
    canonical_binding,
    check_feasible,
    full_crossbar_config,
    lower_bound,
    min_config,
    optimal_binding,
    shared_bus_config,
    validate_binding,
)
from .trace import (
    REQUEST,
    RESPONSE,
    Trace,
    TraceError,
    Transaction,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams",
    "BandwidthInfeasibleError",
    "CompareRow",
    "CrossbarConfig",
    "GenError",
    "GenSpec",
    "InfeasibleError",
    "InstanceError",
    "ProblemInstance",
    "REQUEST",
    "RESPONSE",
    "SearchBudget",
    "SimReport",
    "SolveReport",
    "SolverLimitReached",
    "SolverLimits",
    "Trace",
    "TraceError",
    "Transaction",
    "WindowProfile",
    "aggregate_overlap",
    "baseline_configs",
    "benchmark_preset",
    "binding_maxov",
    "build_instance",
    "canonical_binding",
    "check_feasible",
    "compare",
    "export_milp",
    "full_crossbar_config",
    "generate",
    "load_trace",
    "lower_bound",
    "min_config",
    "optimal_binding",
    "preprocess",
    "profile",
    "save_trace",
    "shared_bus_config",
    "simulate",
    "spec_from_text",
    "spec_to_text",
    "validate_binding",
    "validate_profile",
]
