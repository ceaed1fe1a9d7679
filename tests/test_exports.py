import ast
import importlib
import json
import pkgutil
import subprocess
import sys
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


# The package's public names and the module that defines each.
PUBLIC = {
    "logic": ["DiscreteDistribution", "LogicalOperation", "OperationClass", "bayes_invert",
              "classify", "compose", "one_bit", "propagate", "shannon_entropy"],
    "thermo": ["ModelSkeleton", "NATURAL_UNITS", "SI_UNITS", "Scenario", "StateThermo",
               "UnitSystem", "aggregate_baths", "make_model", "validate"],
    "costs": ["INFINITE_COST", "CostReport", "WeightVector", "expected_cost", "glp_bounds",
              "is_infinite", "make_weights", "minimize_expected_work", "optimal_weights",
              "transition_cost"],
    "boxprotocol": ["ProtocolLedger", "reconcile", "run_protocol", "squarewell_props"],
    "cycles": ["build_reversible_cycle", "entropy_ledgers", "evaluate_cycle",
               "partial_operation_cost", "reverse_operation", "rle_le_cycle",
               "suboptimal_cycle_cost", "uncertain_operation_cost"],
    "quantum": ["DensityMatrix", "HamiltonianSpec", "canonicalize", "gibbs_state", "run_trials",
                "verify_bound", "vn_entropy"],
}


def test_package_exports_exactly_the_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 47
    assert sorted(thermologic.__all__) == sorted(names)
    listed = dir(thermologic)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"thermologic.{module}")
        for name in names:
            assert getattr(thermologic, name) is getattr(defining, name), name
            assert name in listed, name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        thermologic.no_such_name
    assert not hasattr(thermologic, "expected_costs")


def test_package_name_follows_a_patch_of_its_module(monkeypatch):
    from thermologic import costs

    def patched(*args):
        return "patched"

    original = thermologic.expected_cost
    monkeypatch.setattr(costs, "expected_cost", patched)
    assert thermologic.expected_cost is patched
    monkeypatch.undo()
    assert thermologic.expected_cost is original


def test_importing_the_package_loads_no_layer():
    src = str(Path(thermologic.__file__).resolve().parents[1])
    code = "import json, sys, thermologic; print(json.dumps(sorted(m for m in sys.modules if 'thermologic' in m)))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == ["thermologic"]
