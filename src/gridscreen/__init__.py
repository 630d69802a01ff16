"""AC power flow and N-1 line outage screening on the converged network model.

The package solves the AC power flow by a Newton iteration in rectangular
voltage coordinates, reuses the converged iteration matrix as an
operating-point linear model, reproduces line outages inside that model as
equivalent current injections at the branch terminals, and screens all N-1
line outages ranked by first-order severity.  A classical DC PTDF/LODF
baseline and a nonlinear re-solve oracle are included for comparison.
"""

from .case_io import (
    AdmittanceMatrix,
    Branch,
    Bus,
    BusKind,
    Generator,
    GridCase,
    build_ybus,
    bundled_case,
    bundled_case_path,
    case_from_json,
    case_to_json,
    load_case,
    parse_case,
    scale_loading,
)
from .dcmodel import DcLodfResult, DcModel, build_dc_model, dc_lodf, solve_dc
from .errors import (
    CaseError,
    DivergenceError,
    GridScreenError,
    IslandingError,
    PowerFlowError,
    SingularSystemError,
)
from .powerflow import (
    LinearizedSystem,
    PowerFlowOptions,
    PowerFlowSolution,
    branch_power_flows,
    branch_terminal_currents,
    linearize_at_solution,
    power_balance,
    solve_ac_powerflow,
)
from .screening import (
    ComparisonSummary,
    OracleOutcome,
    ScreenEntry,
    ScreeningReport,
    compare_severities,
    find_bridges,
    is_connected,
    oracle_outage,
    screen,
)
from .sensitivity import (
    SEVERITY_METRICS,
    CircuitLodfResult,
    OutageImpact,
    branch_current_jacobian,
    circuit_lodf,
    evaluate_outage,
    injection_sensitivity,
    outage_transfer_matrix,
    singular_outage_branches,
    solve_outage_injection,
)

__version__ = "0.1.0"

__all__ = [
    "AdmittanceMatrix",
    "Branch",
    "Bus",
    "BusKind",
    "CaseError",
    "CircuitLodfResult",
    "ComparisonSummary",
    "DcLodfResult",
    "DcModel",
    "DivergenceError",
    "Generator",
    "GridCase",
    "GridScreenError",
    "IslandingError",
    "LinearizedSystem",
    "OracleOutcome",
    "OutageImpact",
    "PowerFlowError",
    "PowerFlowOptions",
    "PowerFlowSolution",
    "ScreenEntry",
    "ScreeningReport",
    "SEVERITY_METRICS",
    "SingularSystemError",
    "branch_current_jacobian",
    "branch_power_flows",
    "branch_terminal_currents",
    "build_dc_model",
    "build_ybus",
    "bundled_case",
    "bundled_case_path",
    "case_from_json",
    "case_to_json",
    "circuit_lodf",
    "compare_severities",
    "dc_lodf",
    "evaluate_outage",
    "find_bridges",
    "injection_sensitivity",
    "is_connected",
    "linearize_at_solution",
    "load_case",
    "oracle_outage",
    "outage_transfer_matrix",
    "parse_case",
    "power_balance",
    "scale_loading",
    "screen",
    "singular_outage_branches",
    "solve_ac_powerflow",
    "solve_dc",
    "solve_outage_injection",
    "__version__",
]
