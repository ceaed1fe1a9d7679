"""Thermodynamic cycles built from logical operations and their entropy books.

Three entropy ledgers are tracked for any implemented operation: the
per-transition change of the occupied state's entropy plus bath entropy,
its average over the joint transition distribution, and the change of the
full mixture (Gibbs) entropy plus bath entropy.  The first two can go
systematically negative for indeterministic operations; the mixture
ledger is non-negative always and vanishes exactly at the optimal
weights.

The module also provides generic reverse operations and the three
irreversibility sources that survive optimal implementation: weights
tuned to the wrong input statistics, uncertainty about which operation
acted, and operations that cannot see correlations with a bystander
system.  Each source's excess cycle cost is a KL-divergence-shaped
quantity, returned alongside the raw thermodynamic sums so the two
routes can be compared.  The three sources and the randomise-then-reset
cycle work in natural units (k_B = 1), so ``kT`` is the temperature they
are given, which must be finite and positive.

A closed cycle around an implemented operation is the :class:`Scenario`
whose input statistics are the design weights: the one scenario for
which those weights are optimal, and so the one whose cycle is free.
Randomise-then-reset (:func:`rle_le_cycle`) is such a cycle around the
2 -> 1 reset, in the uniform or the adiabatic-equilibrium model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .costs import (
    CostError,
    CostReport,
    INFINITE_COST,
    WeightVector,
    _optimised_scenario,
    _report,
    _transition_columns,
    expected_cost,
    is_infinite,
    optimal_weights,
)
from .logic import (
    DiscreteDistribution,
    LogicalOperation,
    _Frozen,
    _frozen,
    _is_distribution,
    _logs,
    bayes_invert,
    classify,
    prune_zero_inputs,
    prune_zero_outputs,
)
from .thermo import (
    NATURAL_UNITS,
    ModelSkeleton,
    Scenario,
    StateArrays,
    StateThermo,
    UnitSystem,
    _bound_terms,
    _kept_states,
    make_model,
    mixture_free_energy,
)

LEDGER_TOL = 1e-9  # entropy_ledgers: values within this of zero or of their bound count as equal

_ONE = _frozen(np.ones(1))  # the standard state's one probability and one weight

__all__ = [
    "DegenerateCycleError",
    "TransitionEntropy",
    "EntropyColumns",
    "EntropyLedger",
    "entropy_ledgers",
    "ReverseOperationReport",
    "reverse_operation",
    "SuboptimalCycleCost",
    "suboptimal_cycle_cost",
    "UncertainOperationReport",
    "uncertain_operation_cost",
    "PartialOperationReport",
    "partial_operation_cost",
    "build_reversible_cycle",
    "CycleEvaluation",
    "evaluate_cycle",
    "ResetCycleReport",
    "rle_le_cycle",
]


class DegenerateCycleError(ValueError):
    pass


def _kt(temperature: float) -> float:
    """``k T`` in natural units (k_B = 1), once ``temperature`` is checked finite and positive."""
    if not 0.0 < temperature < math.inf:  # NaN fails too
        raise DegenerateCycleError(f"temperature must be finite and positive, got {temperature!r}")
    return temperature


def _expected_log_ratio(weights: np.ndarray, ratios: np.ndarray) -> float:
    """``sum weights * ln ratios``, the shape of every KL excess here, summed with ``fsum``."""
    return math.fsum((weights * _logs(ratios)).tolist())


@dataclass(frozen=True)
class TransitionEntropy:
    input_index: int
    output_index: int
    value: float
    lower_bound: float
    attains_bound: bool


class EntropyColumns(NamedTuple):
    """Live realisable transitions in row-major order, one read-only array per field.

    ``conditional`` is the transition's conditional probability, whose
    log is the lower bound on its ``value``.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    value: np.ndarray
    conditional: np.ndarray


@dataclass(frozen=True, eq=False)
class EntropyLedger(_Frozen):
    """The three entropy ledgers for one implemented operation (units of k)."""

    columns: EntropyColumns
    average: float
    gibbs: float
    individual_flags_irreversible: bool
    individual_decreases: bool
    average_flags_irreversible: bool
    average_decreases: bool
    gibbs_flags_irreversible: bool

    @cached_property
    def individual(self) -> tuple[TransitionEntropy, ...]:
        """One :class:`TransitionEntropy` per row of ``columns``, built on first access."""
        inputs, outputs, values, conditional = self.columns
        bounds = _logs(conditional)
        attains = np.abs(values - bounds) <= LEDGER_TOL
        fields = (inputs, outputs, values, bounds, attains)
        return tuple(map(TransitionEntropy, *(c.tolist() for c in fields)))


def entropy_ledgers(scenario: Scenario, weights: WeightVector) -> EntropyLedger:
    """Evaluate all three entropy measures for the given implementation.

    Each realisable transition contributes
    ``S_out - S_in + heat / (k T_R)``, bounded below by the log of its
    conditional probability.  The averaged form equals minus the Shannon
    change (in nats) at optimal weights; the mixture form is non-negative
    for every valid weight choice and zero exactly at the optimum.
    """
    if weights.flagged_infinite:
        raise CostError("entropy ledgers need finite costs; some live input has zero weight")
    kt = scenario.kT
    report = expected_cost(scenario, weights)
    priced = report.columns
    live = scenario.input_dist.probs[priced.inputs] != 0.0
    rows, cols = priced.inputs[live], priced.outputs[live]
    s_in, s_out = scenario.input_arrays.entropy, scenario.output_arrays.entropy
    values = s_out[cols] - s_in[rows] + priced.heat[live] / kt
    columns = _frozen(EntropyColumns(rows, cols, values, scenario.op.matrix[rows, cols]))
    average = report.state_entropy_change + report.expected_heat / kt
    gibbs = report.entropy_change + report.expected_heat / kt
    return EntropyLedger(
        columns=columns,
        average=average,
        gibbs=gibbs,
        individual_flags_irreversible=bool((values > LEDGER_TOL).any()),
        individual_decreases=bool((values < -LEDGER_TOL).any()),
        average_flags_irreversible=average > LEDGER_TOL,
        average_decreases=average < -LEDGER_TOL,
        gibbs_flags_irreversible=gibbs > LEDGER_TOL,
    )


@dataclass(frozen=True, eq=False)
class ReverseOperationReport:
    operation: LogicalOperation
    scenario: Scenario
    forward_cost: CostReport
    reverse_cost: CostReport
    work_antisymmetry_error: float
    heat_antisymmetry_error: float
    pruned_inputs: tuple[str, ...]
    pruned_outputs: tuple[str, ...]


def reverse_operation(scenario: Scenario) -> ReverseOperationReport:
    """Posterior operation that restores the input statistics, with costs.

    States that never occur are pruned first (the posterior is undefined
    there).  Optimally implemented, the reverse exactly negates the
    forward expected work and heat.  The pruned operation and the
    posterior are those that :func:`~thermologic.logic.prune_zero_outputs`
    and :func:`~thermologic.logic.bayes_invert` keep for the pair, so a
    caller that asked for them already gets the same objects back.  A
    pruned forward scenario takes its tables' arrays sliced from the
    scenario's.
    """
    op0, dist0, kept_in = prune_zero_inputs(scenario.op, scenario.input_dist)
    op1, kept_out = prune_zero_outputs(op0, dist0)
    kept_in_set, kept_out_set = set(kept_in), set(kept_out)
    pruned_inputs = tuple(
        lbl for i, lbl in enumerate(scenario.op.input_labels) if i not in kept_in_set
    )
    pruned_outputs = tuple(
        lbl for j, lbl in enumerate(scenario.op.output_labels) if j not in kept_out_set
    )
    forward = scenario if op1 is scenario.op else replace(
        scenario,
        input_dist=dist0,
        op=op1,
        input_thermo=_kept_states(scenario.input_thermo, kept_in, scenario.kT),
        output_thermo=_kept_states(scenario.output_thermo, kept_out, scenario.kT),
    )
    reverse_op = bayes_invert(op1, dist0)
    reverse = replace(
        forward,
        input_dist=forward.output_dist,
        op=reverse_op,
        input_thermo=forward.output_thermo,
        output_thermo=forward.input_thermo,
    )
    forward_cost = expected_cost(forward, optimal_weights(forward))
    reverse_cost = expected_cost(reverse, optimal_weights(reverse))
    return ReverseOperationReport(
        operation=reverse_op,
        scenario=reverse,
        forward_cost=forward_cost,
        reverse_cost=reverse_cost,
        work_antisymmetry_error=abs(forward_cost.expected_work + reverse_cost.expected_work),
        heat_antisymmetry_error=abs(forward_cost.expected_heat + reverse_cost.expected_heat),
        pruned_inputs=pruned_inputs,
        pruned_outputs=pruned_outputs,
    )


@dataclass(frozen=True)
class SuboptimalCycleCost:
    work: object  # float or INFINITE_COST
    weights_match_input: bool
    operation_reversible: bool


def suboptimal_cycle_cost(
    op: LogicalOperation,
    weights,
    actual_input: DiscreteDistribution,
    reference_temperature: float = 1.0,
) -> SuboptimalCycleCost:
    """Net work of a closed cycle whose middle stage was tuned to ``weights``.

    The cycle prepares the inputs with their actual statistics, runs the
    operation implemented for fixed ``weights``, then resets optimally.
    The state terms cancel around the loop, leaving

        k T sum P(in, out) ln[ P(in) w_out / (P(out) w_in) ]  >=  0

    which vanishes when the weights match the actual input statistics and
    for every logically reversible operation regardless of weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != op.n_inputs or not _is_distribution(w):
        raise CostError("weights must form a distribution over the operation inputs")
    p_in = actual_input.probs
    if p_in.size != op.n_inputs:
        raise CostError("input distribution arity does not match operation")
    kt = _kt(reference_temperature)
    reversible = classify(op).reversible
    if np.any((w == 0.0) & (p_in > 0.0)):
        return SuboptimalCycleCost(
            work=INFINITE_COST, weights_match_input=False, operation_reversible=reversible
        )
    w_out = w @ op.matrix
    p_out = p_in @ op.matrix
    joint = p_in[:, None] * op.matrix
    rows, cols = np.nonzero(joint)
    ratio = p_in[rows] * w_out[cols] / (p_out[cols] * w[rows])
    return SuboptimalCycleCost(
        work=kt * _expected_log_ratio(joint[rows, cols], ratio),
        weights_match_input=bool(np.abs(w - p_in).max() <= 1e-12),
        operation_reversible=reversible,
    )


@dataclass(frozen=True, eq=False)
class UncertainOperationReport:
    branch_works: tuple[float, ...]
    mean_branch_work: float
    restore_work: float
    cycle_total: float
    mutual_information_nats: float
    excess: float
    factorizes: bool


def uncertain_operation_cost(
    branches,
    input_dist: DiscreteDistribution,
    input_thermo: tuple[StateThermo, ...],
    output_thermo: tuple[StateThermo, ...],
    reference_temperature: float = 1.0,
) -> UncertainOperationReport:
    """Cycle cost when it is uncertain which of several operations acted.

    Each branch is an ``(operation, probability)`` pair acting on the
    shared input statistics, optimally implemented for them.  Closing the
    cycle with an optimal reset leaves an excess equal to ``k T_R`` times
    the mutual information between the output state and the branch label,
    vanishing exactly when the output statistics do not depend on the
    branch.  Both the thermodynamic sum and the information form are
    returned so they can be checked against each other.

    The natural-units :class:`Scenario` of the first branch checks the
    input distribution and the tables, and tabulates the tables.
    """
    ops = [op for op, _ in branches]
    gamma = np.asarray([prob for _, prob in branches], dtype=float)
    if not ops:
        raise CostError("at least one branch is required")
    if not _is_distribution(gamma):
        raise CostError("branch probabilities must form a distribution")
    if any(op.matrix.shape != ops[0].matrix.shape for op in ops):
        raise CostError("all branches must share input and output state sets")
    kt = _kt(reference_temperature)
    scenario = Scenario(input_dist, ops[0], input_thermo, output_thermo, kt)
    p_in = input_dist.probs
    free_in = scenario.input_arrays.free_energy
    free_out = scenario.output_arrays.free_energy

    input_value = mixture_free_energy(p_in, free_in, kt)
    out_by_branch = np.array([p_in @ op.matrix for op in ops])
    branch_works = tuple(
        mixture_free_energy(out_by_branch[g], free_out, kt) - input_value
        for g in range(len(ops))
    )
    p_out = gamma @ out_by_branch
    mean_branch_work = math.fsum(
        g * w for g, w in zip(gamma.tolist(), branch_works)
    )
    restore_work = input_value - mixture_free_energy(p_out, free_out, kt)
    cycle_total = math.fsum((mean_branch_work, restore_work))

    joint = gamma[:, None] * out_by_branch  # (branch, output)
    g, j = np.nonzero(joint)
    ratio = out_by_branch[g, j] / p_out[j]
    mutual_information = _expected_log_ratio(joint[g, j], ratio)
    return UncertainOperationReport(
        branch_works=branch_works,
        mean_branch_work=mean_branch_work,
        restore_work=restore_work,
        cycle_total=cycle_total,
        mutual_information_nats=mutual_information,
        excess=kt * mutual_information,
        factorizes=abs(mutual_information) <= 1e-12,
    )


@dataclass(frozen=True, eq=False)
class PartialOperationReport:
    forward_work: float
    restore_work: float
    cycle_total: float
    conditional_mutual_information_nats: float
    excess: float
    product_prior: bool
    screens_off: bool


def partial_operation_cost(
    joint_prior,
    op: LogicalOperation,
    input_thermo: tuple[StateThermo, ...],
    output_thermo: tuple[StateThermo, ...],
    reference_temperature: float = 1.0,
) -> PartialOperationReport:
    """Cycle cost when the operation sees only one half of a correlated pair.

    ``joint_prior[i, g]`` is the joint probability of the operated state
    ``i`` and a bystander state ``g`` the implementation cannot access;
    the bystander's energies and entropies are assumed additive and
    cancel around the cycle.  The forward stage is optimised for the
    marginal statistics; restoring the joint state optimally then leaves
    an excess of ``k T_R`` times the conditional mutual information
    between the input and the bystander given the output, which vanishes
    for product priors and for logically reversible operations.

    The natural-units :class:`Scenario` of ``op`` and the input marginal
    checks the tables and tabulates them.
    """
    joint = np.asarray(joint_prior, dtype=float)
    if joint.ndim != 2:
        raise CostError("joint prior must be a 2-d array over (input, bystander)")
    if not _is_distribution(joint):
        raise CostError("joint prior must be a probability table")
    if joint.shape[0] != op.n_inputs:
        raise CostError("joint prior arity does not match operation")
    kt = _kt(reference_temperature)
    m = op.matrix
    p_in = joint.sum(axis=1)
    scenario = Scenario(DiscreteDistribution(p_in), op, input_thermo, output_thermo, kt)
    p_bystander = joint.sum(axis=0)
    p_out = p_in @ m
    out_joint = m.T @ joint  # (output, bystander)
    free_in = scenario.input_arrays.free_energy
    free_out = scenario.output_arrays.free_energy

    forward_work = mixture_free_energy(p_out, free_out, kt) - mixture_free_energy(
        p_in, free_in, kt
    )
    restore_in = mixture_free_energy(joint, free_in, kt)
    restore_out = mixture_free_energy(out_joint, free_out, kt)
    restore_work = restore_in - restore_out
    cycle_total = math.fsum((forward_work, restore_work))

    rows, cols = op.support
    tri = joint[rows] * m[rows, cols][:, None]  # (realisable transition, bystander)
    t, g = np.nonzero(tri)
    i, j, tri = rows[t], cols[t], tri[t, g]
    ratio = tri * p_out[j] / (p_in[i] * m[i, j] * out_joint[j, g])
    cmi = _expected_log_ratio(tri, ratio)
    product = bool(np.abs(joint - np.outer(p_in, p_bystander)).max() <= 1e-12)
    return PartialOperationReport(
        forward_work=forward_work,
        restore_work=restore_work,
        cycle_total=cycle_total,
        conditional_mutual_information_nats=cmi,
        excess=kt * cmi,
        product_prior=product,
        screens_off=abs(cmi) <= 1e-12,
    )


def build_reversible_cycle(
    op: LogicalOperation,
    weights,
    input_thermo: tuple[StateThermo, ...],
    output_thermo: tuple[StateThermo, ...],
    reference_temperature: float = 1.0,
    units: UnitSystem = NATURAL_UNITS,
) -> Scenario:
    """Embed an operation implemented for ``weights`` in a closed three-leg cycle.

    The cycle is the scenario whose input statistics are the design
    weights, the one scenario for which they are optimal.
    :func:`evaluate_cycle` derives its opening leg, which emits the
    inputs from a standard state with exactly those weights, and its
    closing leg, which resets every output to the standard state
    optimised for the propagated weights.  Run on matching statistics
    the whole cycle costs nothing, which is what certifies the middle
    implementation as thermodynamically reversible.

    When a live scenario already is this cycle, it is returned: one whose
    optimal weights were made (:func:`~thermologic.costs.optimal_weights`),
    with the same operation and table objects, an equal temperature and
    units, and input statistics equal to ``weights`` bit for bit.  Its
    reports, the designed middle leg among them, are then the ones
    already priced.  In every other case a new scenario is built.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != op.n_inputs or not _is_distribution(w):
        raise CostError("weights must form a distribution over the operation inputs")
    found = _optimised_scenario(op, w, input_thermo, output_thermo, reference_temperature, units)
    if found is not None:
        return found
    return Scenario(
        DiscreteDistribution(w), op, input_thermo, output_thermo, reference_temperature, units
    )


@dataclass(frozen=True, eq=False)
class CycleEvaluation:
    leg_costs: tuple[CostReport, CostReport, CostReport]
    total_work: object  # float or INFINITE_COST
    total_heat: object


def _outer_leg(
    cycle: Scenario,
    p_in: np.ndarray,
    matrix: np.ndarray,
    table_in: StateArrays,
    table_out: StateArrays,
    checked: bool,
) -> CostReport:
    """The report of an outer leg ``matrix``, implemented for its own input statistics ``p_in``.

    Its output statistics, ``p_in @ matrix``, are ``checked`` as ``propagate`` checks them.
    """
    k, t_ref = cycle.units.k_B, cycle.reference_temperature
    output_weights = p_in @ matrix
    p_out = DiscreteDistribution(output_weights).probs if checked else output_weights
    columns = _transition_columns(
        k * t_ref, matrix.nonzero(), p_in, output_weights, table_in, table_out
    )
    bounds = _bound_terms(k, t_ref, p_in, p_out, table_in, table_out)
    return _report(columns, p_in, matrix, bounds)


def evaluate_cycle(cycle: Scenario, middle_input=None) -> CycleEvaluation:
    """Total cost of a cycle for given (possibly mismatched) middle statistics.

    ``cycle`` is the scenario whose input statistics are the design
    weights, as :func:`build_reversible_cycle` returns; any scenario
    serves, with its own input distribution as the weights.  The middle
    leg is priced once per cycle, as ``expected_cost(cycle,
    optimal_weights(cycle))``.  With no ``middle_input`` that report is
    the middle leg and the total vanishes.  Otherwise the opening and
    closing legs are derived for the actual statistics (they define the
    cycle for that input) while the middle leg keeps the designed
    weights: its transitions cost what they cost in the designed leg,
    weighted by the actual statistics, so the total reduces to the
    suboptimal-implementation excess.  The opening leg is one row from
    the standard state (energy ``k T_R / 2``, zero entropy) to the
    inputs; the closing leg is one column from every output back to it.
    Each outer leg is priced from those arrays and the cycle's tables,
    implemented for its own statistics, by the kernels that price a
    scenario.
    """
    mid = cycle if middle_input is None else replace(
        cycle, input_dist=DiscreteDistribution(middle_input)
    )
    designed = expected_cost(cycle, optimal_weights(cycle))
    if mid is cycle:
        middle = designed
    else:
        middle = _report(designed.columns, mid.input_dist.probs, cycle.op.matrix, mid.bound_terms)
    t_ref = cycle.reference_temperature
    # The state check rejects a k T_R / 2 that overflows; E - kT S at S = 0 as a table has it.
    energy = StateThermo(0.5 * cycle.units.k_B * t_ref, 0.0, t_ref).energy
    standard = StateArrays(np.array([energy]), np.zeros(1), np.array([energy - cycle.kT * 0.0]))
    p_out = mid.output_dist.probs
    costs = (
        _outer_leg(cycle, _ONE, mid.input_dist.probs[None, :], standard, cycle.input_arrays, False),
        middle,
        _outer_leg(cycle, p_out, np.ones((p_out.size, 1)), cycle.output_arrays, standard, True),
    )
    if any(is_infinite(c.expected_work) for c in costs):
        total_work = total_heat = INFINITE_COST
    else:
        total_work = math.fsum(c.expected_work for c in costs)
        total_heat = math.fsum(c.expected_heat for c in costs)
    return CycleEvaluation(leg_costs=costs, total_work=total_work, total_heat=total_heat)


@dataclass(frozen=True, eq=False)
class ResetCycleReport:
    """An unset-then-reset cycle: its three legs and its net cost (energies in natural units)."""

    model: str
    p: float
    p_prime: float
    evaluation: CycleEvaluation  # legs: unset, reset, restore
    kl_nats: float
    net_work: float
    net_heat: float
    reversible: bool


def rle_le_cycle(
    p: float,
    p_prime: float | None = None,
    model: str = "uniform",
    temperature: float = 1.0,
) -> ResetCycleReport:
    """Unset-then-reset cycle: randomise to ``p``, erase with a reset tuned to ``p_prime``.

    The cycle is the :func:`evaluate_cycle` cycle around the 2 -> 1 reset,
    whose tables ``model`` (``uniform`` or ``adiabatic_equilibrium``)
    builds for the design statistics ``(p_prime, 1-p_prime)``.  Its legs
    unset the standard state into the two inputs with the actual
    statistics ``(p, 1-p)``, reset them with the implementation tuned to
    ``p_prime``, and restore the standard state.  The net work and heat
    are both ``kT`` times the KL divergence of the actual statistics from
    the assumed ones, taken from its information form
    (:func:`suboptimal_cycle_cost`), so they are exactly zero when the
    two agree.
    """
    if p_prime is None:
        p_prime = p
    for name, value in (("p", p), ("p_prime", p_prime)):
        if not 0.0 < value < 1.0:
            raise DegenerateCycleError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    if model not in ("uniform", "adiabatic_equilibrium"):
        raise DegenerateCycleError(f"unknown cycle model {model!r}")
    kt = _kt(temperature)
    reset = LogicalOperation(np.ones((2, 1)))
    design = DiscreteDistribution([p_prime, 1.0 - p_prime])
    actual = DiscreteDistribution([p, 1.0 - p])
    cycle = make_model(model, ModelSkeleton(design, reset, kt))
    kl = suboptimal_cycle_cost(reset, design.probs, actual).work
    return ResetCycleReport(
        model=model,
        p=p,
        p_prime=p_prime,
        evaluation=evaluate_cycle(cycle, middle_input=actual.probs),
        kl_nats=kl,
        net_work=kt * kl,
        net_heat=kt * kl,
        reversible=abs(kl) <= 1e-12,
    )
