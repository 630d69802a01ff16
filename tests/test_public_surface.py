"""The package's public names all exist."""

import importlib
import pkgutil

import gridscreen


def test_every_exported_name_resolves():
    assert len(gridscreen.__all__) == len(set(gridscreen.__all__))
    modules = [gridscreen] + [
        importlib.import_module(f"gridscreen.{info.name}") for info in pkgutil.iter_modules(gridscreen.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
