"""Work, heat and entropy accounting for finite stochastic logical operations."""

__version__ = "0.1.0"

from .logic import (
    DiscreteDistribution,
    LogicalOperation,
    OperationClass,
    bayes_invert,
    classify,
    compose,
    one_bit,
    propagate,
    shannon_entropy,
)
from .thermo import (
    ModelSkeleton,
    NATURAL_UNITS,
    SI_UNITS,
    Scenario,
    StateThermo,
    UnitSystem,
    aggregate_baths,
    make_model,
    validate,
)
from .costs import (
    INFINITE_COST,
    CostReport,
    WeightVector,
    expected_cost,
    glp_bounds,
    is_infinite,
    make_weights,
    minimize_expected_work,
    optimal_weights,
    transition_cost,
)
from .boxprotocol import ProtocolLedger, reconcile, run_protocol, squarewell_props
from .cycles import (
    build_reversible_cycle,
    entropy_ledgers,
    evaluate_cycle,
    partial_operation_cost,
    reverse_operation,
    rle_le_cycle,
    suboptimal_cycle_cost,
    uncertain_operation_cost,
)
from .quantum import (
    DensityMatrix,
    HamiltonianSpec,
    canonicalize,
    gibbs_state,
    run_trials,
    verify_bound,
    vn_entropy,
)
