"""The package's public names all exist, and importing it stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import gridscreen


# the public surface, in the order ``gridscreen.__all__`` lists it: a name added
# to or dropped from the package shows here as an edit of this list
PUBLIC_NAMES = [
    "AdmittanceMatrix",
    "Branch",
    "BranchCurrentJacobian",
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
    "InjectionSensitivity",
    "IslandingError",
    "LinearizedSystem",
    "OracleOutcome",
    "OutageImpact",
    "OutageTransferMatrix",
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


def test_the_public_surface_is_these_56_names():
    assert gridscreen.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 56


def test_every_exported_name_resolves():
    assert len(gridscreen.__all__) == len(set(gridscreen.__all__))
    modules = [gridscreen] + [
        importlib.import_module(f"gridscreen.{info.name}") for info in pkgutil.iter_modules(gridscreen.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_importing_the_package_and_cli_loads_no_scipy_stats():
    """``scipy.stats`` alone adds about 40 MB and 0.6 s to every process; nothing in the package needs it."""
    src = os.path.dirname(os.path.dirname(gridscreen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gridscreen, gridscreen.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]", out.stdout
