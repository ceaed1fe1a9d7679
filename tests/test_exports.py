import importlib
import pkgutil

import pytest

import thermologic

MODULES = sorted(m.name for m in pkgutil.iter_modules(thermologic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # Tooling such as bench/tracer.py finds the public functions by walking __all__.
    module = importlib.import_module(f"thermologic.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"thermologic.{name}.__all__ lists undefined names: {missing}"
