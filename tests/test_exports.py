import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_cli_leaves_file_formats_to_serialize():
    # serialize owns every file format; the command line only wires arguments to computations.
    from thermologic import cli, serialize

    tree = ast.parse(Path(cli.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    from_serialize = [
        alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and node.module == "serialize"
        for alias in node.names
    ]
    assert from_serialize
    private = sorted(set(from_serialize) - set(serialize.__all__))
    assert not private, f"cli imports names serialize does not export: {private}"
    modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert "json" not in modules
