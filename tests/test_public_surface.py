"""The package's public names all exist, and importing it stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import gridscreen


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
