"""Work, heat and entropy accounting for finite stochastic logical operations.

The public names are loaded lazily (PEP 562): ``import thermologic``
imports no layer, and the first use of a name imports the module that
defines it.  Every lookup reads that module, so a name patched there is
seen here too.
"""

import importlib

__version__ = "0.1.0"
DEFAULT_SEED = 1729  # seed of the optimiser's random starts and the command line's --seed

_EXPORTS = {
    name: module
    for module, names in {
        "logic": """DiscreteDistribution LogicalOperation OperationClass bayes_invert
                    classify compose one_bit propagate shannon_entropy""",
        "thermo": """ModelSkeleton NATURAL_UNITS SI_UNITS Scenario StateThermo UnitSystem
                     aggregate_baths make_model validate""",
        "costs": """INFINITE_COST CostReport WeightVector expected_cost glp_bounds is_infinite
                    make_weights minimize_expected_work optimal_weights transition_cost""",
        "boxprotocol": "ProtocolLedger reconcile run_protocol squarewell_props",
        "cycles": """build_reversible_cycle entropy_ledgers evaluate_cycle partial_operation_cost
                     reverse_operation rle_le_cycle suboptimal_cycle_cost
                     uncertain_operation_cost""",
        "quantum": """DensityMatrix HamiltonianSpec canonicalize gibbs_state run_trials
                      verify_bound vn_entropy""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached in this namespace, so a later patch of the defining module shows here.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
