import importlib
import pkgutil

import pytest

import spacelike

MODULES = ["spacelike"] + [
    f"spacelike.{m.name}" for m in pkgutil.iter_modules(spacelike.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_exactly_the_submodule_lists():
    names = set()
    for m in ("linalg", "spacetime", "intervention", "experiment", "scenarios", "schema"):
        names.update(importlib.import_module(f"spacelike.{m}").__all__)
    assert set(spacelike.__all__) == names
    assert len(spacelike.__all__) == len(names)
