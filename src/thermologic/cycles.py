"""Thermodynamic cycles built from logical operations and their entropy books.

Three entropy ledgers are tracked for any implemented operation: the
per-transition change of the occupied state's entropy plus bath entropy,
its average over the joint transition distribution, and the change of the
full mixture (Gibbs) entropy plus bath entropy.  The first two can go
systematically negative for indeterministic operations; the mixture
ledger is non-negative always and vanishes exactly at the optimal
weights.

The module also provides the classic expand/partition/reset box cycle in
both the uniform and the adiabatic-equilibrium computing models, generic
reverse operations, and the three irreversibility sources that survive
optimal implementation: weights tuned to the wrong input statistics,
uncertainty about which operation acted, and operations that cannot see
correlations with a bystander system.  Each source's excess cycle cost is
a KL-divergence-shaped quantity, returned alongside the raw
thermodynamic sums so the two routes can be compared.  The box cycle and
the three sources work in natural units (k_B = 1), so ``kT`` is the
temperature they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .costs import (
    CostError,
    CostReport,
    INFINITE_COST,
    WeightVector,
    expected_cost,
    is_infinite,
    make_weights,
    optimal_weights,
)
from .logic import (
    DiscreteDistribution,
    LogicalOperation,
    _entropy_nats,
    _logs,
    bayes_invert,
    classify,
    propagate,
    prune_zero_inputs,
    prune_zero_outputs,
)
from .thermo import (
    NATURAL_UNITS,
    Scenario,
    StateThermo,
    UnitSystem,
    mixture_free_energy,
    state_arrays,
)

LEDGER_TOL = 1e-9  # entropy_ledgers: values within this of zero or of their bound count as equal

__all__ = [
    "DegenerateCycleError",
    "CycleStage",
    "BoxCycleReport",
    "rle_le_cycle",
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
    "CycleSpec",
    "build_reversible_cycle",
    "CycleEvaluation",
    "evaluate_cycle",
]


class DegenerateCycleError(ValueError):
    pass


@dataclass(frozen=True)
class CycleStage:
    """One box manipulation: its cost and its entropy bookkeeping (units of k)."""

    name: str
    kind: str  # "move", "split" or "merge"
    work: float
    heat: float
    mean_state_entropy_change: float
    mixing_entropy_change: float
    bath_entropy_change: float


@dataclass(frozen=True, eq=False)
class BoxCycleReport:
    model: str
    p: float
    p_prime: float
    stages: tuple[CycleStage, ...]
    net_work: float
    net_heat: float
    kl_nats: float
    reversible: bool

    @property
    def entropy_totals(self) -> dict[str, float]:
        return {
            "mean_state": math.fsum(s.mean_state_entropy_change for s in self.stages),
            "mixing": math.fsum(s.mixing_entropy_change for s in self.stages),
            "gibbs": math.fsum(
                s.mean_state_entropy_change + s.mixing_entropy_change for s in self.stages
            ),
            "bath": math.fsum(s.bath_entropy_change for s in self.stages),
        }


def _is_distribution(p: np.ndarray) -> bool:
    """Entries at least 0 summing to 1; NaN fails the range test, +inf the sum."""
    return bool((p >= 0.0).all()) and abs(math.fsum(p.ravel().tolist()) - 1.0) <= 1e-9


def _stage(name: str, kind: str, before, after, kt: float) -> CycleStage:
    """Cost one manipulation of branch (probability, width) tables.

    Isothermal moves keep branch probabilities and cost
    ``kT sum p (ln w_before - ln w_after)`` as both work and bath heat;
    splits and merges are free.  Log widths are differenced so that a
    stage and its exact mirror cancel to the last bit.
    """
    work = 0.0
    if kind == "move":
        terms = [
            p * (math.log(wb) - math.log(wa))
            for (p, wb), (_, wa) in zip(before, after)
            if p > 0.0
        ]
        work = kt * math.fsum(terms)
    mean_before = math.fsum(p * math.log(w) for p, w in before if p > 0.0)
    mean_after = math.fsum(p * math.log(w) for p, w in after if p > 0.0)
    mixing_change = _entropy_nats(np.array([p for p, _ in after])) - _entropy_nats(
        np.array([p for p, _ in before])
    )
    return CycleStage(
        name=name,
        kind=kind,
        work=work,
        heat=work,
        mean_state_entropy_change=mean_after - mean_before,
        mixing_entropy_change=mixing_change,
        bath_entropy_change=work / kt,
    )


def rle_le_cycle(
    p: float,
    p_prime: float | None = None,
    model: str = "uniform",
    temperature: float = 1.0,
) -> BoxCycleReport:
    """Unset-then-reset box cycle: randomise to ``p``, erase assuming ``p_prime``.

    In the uniform model the box starts and ends as a half-width standard
    state; in the adiabatic-equilibrium model the certain state spans the
    whole box and partitions track probabilities, so every stage of the
    matched cycle is free.  Either way the net cost is ``kT`` times the
    KL divergence between the true branch statistics ``(p, 1-p)`` and the
    assumed ``(p_prime, 1-p_prime)``, vanishing only when they agree.
    """
    if p_prime is None:
        p_prime = p
    for name, value in (("p", p), ("p_prime", p_prime)):
        if not 0.0 < value < 1.0:
            raise DegenerateCycleError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    if model not in ("uniform", "adiabatic_equilibrium"):
        raise DegenerateCycleError(f"unknown cycle model {model!r}")
    if not 0.0 < temperature < math.inf:  # NaN fails too
        raise DegenerateCycleError(f"temperature must be finite and positive, got {temperature!r}")
    kt = temperature
    q, q_prime = 1.0 - p, 1.0 - p_prime

    if model == "uniform":
        stages = (
            _stage("expand reference state", "move", [(1.0, 0.5)], [(1.0, 1.0)], kt),
            _stage("insert partition", "split", [(1.0, 1.0)], [(p, p), (q, q)], kt),
            _stage("centre partition", "move", [(p, p), (q, q)], [(p, 0.5), (q, 0.5)], kt),
            _stage(
                "move partition to assumed split",
                "move",
                [(p, 0.5), (q, 0.5)],
                [(p, p_prime), (q, q_prime)],
                kt,
            ),
            _stage(
                "remove partition", "merge", [(p, p_prime), (q, q_prime)], [(1.0, 1.0)], kt
            ),
            _stage("recompress reference state", "move", [(1.0, 1.0)], [(1.0, 0.5)], kt),
        )
    else:
        stages = (
            _stage("insert partition", "split", [(1.0, 1.0)], [(p, p), (q, q)], kt),
            _stage(
                "move partition to assumed split",
                "move",
                [(p, p), (q, q)],
                [(p, p_prime), (q, q_prime)],
                kt,
            ),
            _stage(
                "remove partition", "merge", [(p, p_prime), (q, q_prime)], [(1.0, 1.0)], kt
            ),
        )

    net_work = math.fsum(s.work for s in stages)
    net_heat = math.fsum(s.heat for s in stages)
    kl = p * math.log(p / p_prime) + q * math.log(q / q_prime)
    return BoxCycleReport(
        model=model,
        p=p,
        p_prime=p_prime,
        stages=stages,
        net_work=net_work,
        net_heat=net_heat,
        kl_nats=kl,
        reversible=abs(kl) <= 1e-12,
    )


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
class EntropyLedger:
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
    columns = EntropyColumns(rows, cols, values, scenario.op.matrix[rows, cols])
    for column in columns:
        column.setflags(write=False)
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
    forward expected work and heat.
    """
    op0, dist0, kept_in = prune_zero_inputs(scenario.op, scenario.input_dist)
    op1, kept_out = prune_zero_outputs(op0, dist0)
    pruned_inputs = tuple(
        lbl for i, lbl in enumerate(scenario.op.input_labels) if i not in kept_in
    )
    pruned_outputs = tuple(
        lbl for j, lbl in enumerate(scenario.op.output_labels) if j not in kept_out
    )
    forward = Scenario(
        input_dist=dist0,
        op=op1,
        input_thermo=tuple(scenario.input_thermo[i] for i in kept_in),
        output_thermo=tuple(scenario.output_thermo[j] for j in kept_out),
        reference_temperature=scenario.reference_temperature,
        units=scenario.units,
    )
    reverse_op = bayes_invert(op1, dist0)
    reverse = Scenario(
        input_dist=forward.output_dist,
        op=reverse_op,
        input_thermo=forward.output_thermo,
        output_thermo=forward.input_thermo,
        reference_temperature=scenario.reference_temperature,
        units=scenario.units,
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
    if np.any((w == 0.0) & (p_in > 0.0)):
        return SuboptimalCycleCost(
            work=INFINITE_COST,
            weights_match_input=False,
            operation_reversible=classify(op).reversible,
        )
    w_out = w @ op.matrix
    p_out = p_in @ op.matrix
    kt = reference_temperature
    joint = p_in[:, None] * op.matrix
    rows, cols = np.nonzero(joint)
    ratio = p_in[rows] * w_out[cols] / (p_out[cols] * w[rows])
    work = kt * math.fsum((joint[rows, cols] * _logs(ratio)).tolist())
    return SuboptimalCycleCost(
        work=work,
        weights_match_input=bool(np.allclose(w, p_in, rtol=0.0, atol=1e-12)),
        operation_reversible=classify(op).reversible,
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
    """
    ops = [op for op, _ in branches]
    gamma = np.asarray([prob for _, prob in branches], dtype=float)
    if not ops:
        raise CostError("at least one branch is required")
    if not _is_distribution(gamma):
        raise CostError("branch probabilities must form a distribution")
    n_in = ops[0].n_inputs
    n_out = ops[0].n_outputs
    if any(op.n_inputs != n_in or op.n_outputs != n_out for op in ops):
        raise CostError("all branches must share input and output state sets")
    if len(input_thermo) != n_in or len(output_thermo) != n_out:
        raise CostError("thermo table arity mismatch")
    p_in = input_dist.probs
    kt = reference_temperature
    free_in = state_arrays(input_thermo, kt).free_energy
    free_out = state_arrays(output_thermo, kt).free_energy

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

    mi_terms = []
    for g in range(len(ops)):
        if gamma[g] == 0.0:
            continue
        for j in range(n_out):
            joint = gamma[g] * out_by_branch[g, j]
            if joint == 0.0:
                continue
            mi_terms.append(joint * math.log(out_by_branch[g, j] / p_out[j]))
    mutual_information = math.fsum(mi_terms)
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
    """
    joint = np.asarray(joint_prior, dtype=float)
    if joint.ndim != 2:
        raise CostError("joint prior must be a 2-d array over (input, bystander)")
    if not _is_distribution(joint):
        raise CostError("joint prior must be a probability table")
    if joint.shape[0] != op.n_inputs:
        raise CostError("joint prior arity does not match operation")
    if len(input_thermo) != op.n_inputs or len(output_thermo) != op.n_outputs:
        raise CostError("thermo table arity mismatch")
    kt = reference_temperature
    m = op.matrix
    p_in = joint.sum(axis=1)
    p_bystander = joint.sum(axis=0)
    p_out = p_in @ m
    out_joint = m.T @ joint  # (output, bystander)
    free_in = state_arrays(input_thermo, kt).free_energy
    free_out = state_arrays(output_thermo, kt).free_energy

    forward_work = mixture_free_energy(p_out, free_out, kt) - mixture_free_energy(
        p_in, free_in, kt
    )
    restore_in = mixture_free_energy(joint, free_in, kt)
    restore_out = mixture_free_energy(out_joint, free_out, kt)
    restore_work = restore_in - restore_out
    cycle_total = math.fsum((forward_work, restore_work))

    rows, cols = np.nonzero(m)
    tri = joint[rows] * m[rows, cols][:, None]  # (realisable transition, bystander)
    t, g = np.nonzero(tri)
    i, j, tri = rows[t], cols[t], tri[t, g]
    ratio = tri * p_out[j] / (p_in[i] * m[i, j] * out_joint[j, g])
    cmi = math.fsum((tri * _logs(ratio)).tolist())
    product = bool(
        np.allclose(joint, np.outer(p_in, p_bystander), rtol=0.0, atol=1e-12)
    )
    return PartialOperationReport(
        forward_work=forward_work,
        restore_work=restore_work,
        cycle_total=cycle_total,
        conditional_mutual_information_nats=cmi,
        excess=kt * cmi,
        product_prior=product,
        screens_off=abs(cmi) <= 1e-12,
    )


@dataclass(frozen=True, eq=False)
class CycleSpec:
    """Open-emit-reset cycle around one operation, anchored at a standard state.

    The middle leg runs ``op`` implemented for ``weights``; the opening
    and closing legs, and the standard state (energy ``k T_R / 2``, zero
    entropy), are derived from it by :func:`evaluate_cycle`.
    """

    op: LogicalOperation
    weights: np.ndarray
    input_thermo: tuple[StateThermo, ...]
    output_thermo: tuple[StateThermo, ...]
    reference_temperature: float
    units: UnitSystem


def build_reversible_cycle(
    op: LogicalOperation,
    weights,
    input_thermo: tuple[StateThermo, ...],
    output_thermo: tuple[StateThermo, ...],
    reference_temperature: float = 1.0,
    units: UnitSystem = NATURAL_UNITS,
) -> CycleSpec:
    """Embed an implemented operation in a closed three-leg cycle.

    The opening leg emits the inputs from a standard state with exactly
    the implementation weights; the closing leg resets every output to
    the standard state, optimised for the propagated weights.  Run on
    matching statistics the whole cycle costs nothing, which is what
    certifies the middle implementation as thermodynamically reversible.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != op.n_inputs or not _is_distribution(w):
        raise CostError("weights must form a distribution over the operation inputs")
    return CycleSpec(
        op=op,
        weights=w,
        input_thermo=tuple(input_thermo),
        output_thermo=tuple(output_thermo),
        reference_temperature=reference_temperature,
        units=units,
    )


@dataclass(frozen=True, eq=False)
class CycleEvaluation:
    leg_costs: tuple[CostReport, CostReport, CostReport]
    total_work: object  # float or INFINITE_COST
    total_heat: object


def evaluate_cycle(spec: CycleSpec, middle_input=None) -> CycleEvaluation:
    """Total cost of the cycle for given (possibly mismatched) middle statistics.

    With no ``middle_input`` the designed weights are used and the total
    vanishes.  Otherwise the opening and closing legs are derived for
    the actual statistics (they define the cycle for that input) while
    the middle leg keeps its designed weights, so the total reduces to
    the suboptimal-implementation excess.  The opening leg is one row
    from the standard state to the inputs; the closing leg is one column
    from every output back to it.
    """

    def leg(dist, op, input_thermo, output_thermo) -> Scenario:
        return Scenario(
            input_dist=dist,
            op=op,
            input_thermo=input_thermo,
            output_thermo=output_thermo,
            reference_temperature=spec.reference_temperature,
            units=spec.units,
        )

    p_mid = np.asarray(middle_input, dtype=float) if middle_input is not None else spec.weights
    mid_dist = DiscreteDistribution(p_mid)
    standard = ("standard",)
    t_ref = spec.reference_temperature
    standard_state = (StateThermo(0.5 * spec.units.k_B * t_ref, 0.0, t_ref),)
    opener_op = LogicalOperation(
        p_mid[None, :], input_labels=standard, output_labels=spec.op.input_labels
    )
    closer_op = LogicalOperation(
        np.ones((spec.op.n_outputs, 1)), input_labels=spec.op.output_labels, output_labels=standard
    )
    opener = leg(DiscreteDistribution([1.0]), opener_op, standard_state, spec.input_thermo)
    mid = leg(mid_dist, spec.op, spec.input_thermo, spec.output_thermo)
    out_dist = propagate(spec.op, mid_dist)
    closer = leg(out_dist, closer_op, spec.output_thermo, standard_state)
    costs = (
        expected_cost(opener, make_weights(opener, [1.0])),
        expected_cost(mid, make_weights(mid, spec.weights)),
        expected_cost(closer, make_weights(closer, out_dist.probs)),
    )
    if any(is_infinite(c.expected_work) for c in costs):
        total_work = total_heat = INFINITE_COST
    else:
        total_work = math.fsum(c.expected_work for c in costs)
        total_heat = math.fsum(c.expected_heat for c in costs)
    return CycleEvaluation(leg_costs=costs, total_work=total_work, total_heat=total_heat)
