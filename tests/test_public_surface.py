"""The package's public names all exist, and importing it stays light."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gridscreen


# the public surface, in the order ``gridscreen.__all__`` lists it: a name added
# to or dropped from the package shows here as an edit of this list
PUBLIC_NAMES = [
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


def test_the_public_surface_is_these_53_names():
    assert gridscreen.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 53


def test_every_exported_name_resolves():
    assert len(gridscreen.__all__) == len(set(gridscreen.__all__))
    for name in gridscreen.__all__:
        assert hasattr(gridscreen, name), f"gridscreen.__all__ names missing {name!r}"
    # the package's own list is the one declaration of the surface
    for info in pkgutil.iter_modules(gridscreen.__path__):
        module = importlib.import_module(f"gridscreen.{info.name}")
        assert not hasattr(module, "__all__"), f"{module.__name__} declares its own __all__"


def test_the_benchmark_imports_public_or_existing_names():
    """``perfbench`` takes package names from ``gridscreen.__all__`` and submodule names that exist."""
    imports = []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gridscreen":
                imports += [(path.name, node.module, alias.name) for alias in node.names]
    assert any(module == "gridscreen" for _, module, _ in imports)
    for file, module, name in imports:
        if module == "gridscreen":
            assert name in gridscreen.__all__, f"{file} imports {name!r}, which gridscreen does not export"
        else:
            assert hasattr(importlib.import_module(module), name), f"{file} imports {module}.{name}, which does not exist"


def test_importing_the_package_and_cli_loads_no_scipy_stats():
    """``scipy.stats`` alone adds about 40 MB and 0.6 s to every process; nothing in the package needs it."""
    src = os.path.dirname(os.path.dirname(gridscreen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gridscreen, gridscreen.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]", out.stdout
