"""Work and heat accounting for physically implemented logical operations.

The physical implementation allots each input state a fraction of the
apparatus (its *partition weight* ``w``); outputs inherit the propagated
weights ``w_out = w @ matrix``.  Per-transition work and heat have the
closed form

    work  = (E_out - T_R k S_out) - (E_in - T_R k S_in) + k T_R ln(w_out / w_in)
    heat  = T_R k (S_in - S_out + ln(w_out / w_in))

and the expected cost over the joint transition distribution is minimised
by ``w = P(input)``, which attains the general lower bounds

    <W> >= <dE> - T_R dS        (work form)
    <Q> >= -T_R dS              (heat form)

with ``dS`` the full mixture entropy change (per-state entropies plus
mixing).  A mirror-descent minimiser over the weight simplex is included
purely as an independent numerical cross-check of the analytic optimum,
plus a minimax variant for worst-case rather than mean cost.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import DEFAULT_SEED
from .logic import (
    ArityMismatchError,
    LogicalOperation,
    _Frozen,
    _PairMemo,
    _frozen,
    _logs,
    _once_per_pair,
    classify,
)
from .thermo import Scenario, StateArrays

STALL_TOL = 1e-10  # minimize_expected_work: a step gaining less than this counts as stalled

__all__ = [
    "DEFAULT_SEED",
    "INFINITE_COST",
    "is_infinite",
    "CostError",
    "TransitionImpossibleError",
    "WeightVector",
    "make_weights",
    "optimal_weights",
    "TransitionCost",
    "TransitionColumns",
    "CostReport",
    "transition_cost",
    "expected_cost",
    "glp_bounds",
    "OptimizationResult",
    "minimize_expected_work",
    "minimax_weights",
]


class CostError(ValueError):
    pass


class TransitionImpossibleError(CostError):
    """Requested a transition with zero conditional probability."""


class _InfiniteCost:
    """Tagged sentinel for unboundedly expensive outcomes.

    Kept distinct from float infinity so reports stay serialisable and
    comparisons stay explicit.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INFINITE_COST = _InfiniteCost()


def is_infinite(value) -> bool:
    return value is INFINITE_COST


@dataclass(frozen=True, eq=False)
class WeightVector(_PairMemo):
    """Partition weights over input states plus the derived output weights.

    ``infinite_inputs`` lists inputs that were given zero weight while
    still occurring with positive probability; any expectation involving
    them is flagged as infinitely expensive rather than rejected.

    Both arrays are read-only, so a vector keeps what is built from it and
    a scenario (the :func:`expected_cost` report, the ledger columns of
    :func:`~thermologic.boxprotocol.run_protocol`), each for as long as
    its scenario lives.
    """

    weights: np.ndarray
    output_weights: np.ndarray
    infinite_inputs: tuple[int, ...] = ()
    weight_independent: bool = False

    def __post_init__(self):
        # Read-only copies: the caller's arrays stay theirs and writable.
        for name in ("weights", "output_weights"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))

    @property
    def flagged_infinite(self) -> bool:
        return bool(self.infinite_inputs)


def make_weights(scenario: Scenario, weights) -> WeightVector:
    """Validate raw weights against a scenario and derive output weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != scenario.op.n_inputs:
        raise ArityMismatchError(
            f"expected {scenario.op.n_inputs} weights, got {w.size}"
        )
    lowest = w.min()
    if not lowest >= 0.0:  # NaN fails too; +inf fails the sum below
        raise CostError(f"weights must be non-negative, got {w.tolist()}")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > 1e-9:
        raise CostError(f"weights sum to {total!r}, expected 1")
    flagged = () if lowest > 0.0 else tuple(
        int(i)
        for i in np.flatnonzero((w == 0.0) & (scenario.input_dist.probs > 0.0))
    )
    return WeightVector(w, w @ scenario.op.matrix, infinite_inputs=flagged)


# Each scenario's optimal weights, for as long as the scenario lives.
_OPTIMAL: weakref.WeakKeyDictionary[Scenario, WeightVector] = weakref.WeakKeyDictionary()
# The scenarios of each operation that have optimal weights, while both live.
_OPTIMISED: weakref.WeakKeyDictionary[LogicalOperation, weakref.WeakSet] = (
    weakref.WeakKeyDictionary()
)


def optimal_weights(scenario: Scenario) -> WeightVector:
    """Cost-minimising weights: ``w = P(input)``.

    For logically reversible operations the expected cost does not depend
    on the weights at all, which is reported via ``weight_independent``.
    A scenario is immutable, so it has one optimal vector: every call
    returns the same object, held weakly by the scenario, and a report
    priced with it is priced once (see :func:`expected_cost`).  The
    scenario is also recorded, weakly, under its operation, where
    :func:`~thermologic.cycles.build_reversible_cycle` finds it.
    """
    weights = _OPTIMAL.get(scenario)
    if weights is None:
        w = scenario.input_dist.probs
        weights = _OPTIMAL[scenario] = WeightVector(
            w,
            w @ scenario.op.matrix,
            infinite_inputs=(),
            weight_independent=classify(scenario.op).reversible,
        )
        scenarios = _OPTIMISED.get(scenario.op)
        if scenarios is None:
            scenarios = _OPTIMISED[scenario.op] = weakref.WeakSet()
        scenarios.add(scenario)
    return weights


def _optimised_scenario(op, weights: np.ndarray, input_thermo, output_thermo, t_ref, units):
    """A live scenario of these parts with optimal weights, whose input statistics are ``weights``.

    The operation and both tables must be the same objects, the
    temperature and units equal, and the statistics equal to ``weights``
    bit for bit.  Such a scenario is the one these parts would build, so
    everything priced from it is what a new one would give.  ``None``
    if there is none.
    """
    for scenario in _OPTIMISED.get(op, ()):
        probs = scenario.input_dist.probs
        if (
            scenario.input_thermo is input_thermo
            and scenario.output_thermo is output_thermo
            and scenario.reference_temperature == t_ref
            and scenario.units == units
            and probs.shape == weights.shape
            and probs.tobytes() == weights.tobytes()
        ):
            return scenario
    return None


@dataclass(frozen=True)
class TransitionCost:
    input_index: int
    output_index: int
    joint_probability: float
    work: object  # float or INFINITE_COST
    heat: object


class TransitionColumns(NamedTuple):
    """Realisable transitions in row-major order, one read-only array per field.

    ``finite`` is false where the input carries zero weight; ``work`` and
    ``heat`` mean nothing there.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    joint: np.ndarray
    work: np.ndarray
    heat: np.ndarray
    finite: np.ndarray


@dataclass(frozen=True, eq=False)
class CostReport(_Frozen):
    """Per-transition costs, their expectations, and the attainable bounds.

    Entropy-like fields are in units of k_B; energies are in scenario
    energy units.  ``entropy_change`` is the full mixture change and
    decomposes as ``state_entropy_change + shannon_change_bits * ln 2``.
    The eight bound fields are the scenario's
    :attr:`~thermologic.thermo.Scenario.bound_terms`; the expectations
    are the infinite-cost sentinel when a zero weight covers a live input.
    """

    mean_energy_change: float
    entropy_change: float
    state_entropy_change: float
    shannon_change_bits: float
    work_bound: float
    heat_bound: float
    bath_entropy_bound: float
    nibdf_bound: float
    columns: TransitionColumns
    expected_work: object  # float or INFINITE_COST
    expected_heat: object

    @cached_property
    def transitions(self) -> tuple[TransitionCost, ...]:
        """One :class:`TransitionCost` per row of ``columns``, built on first access."""
        inputs, outputs, joint, work, heat, finite = (c.tolist() for c in self.columns)
        works = [w if f else INFINITE_COST for w, f in zip(work, finite)]
        heats = [h if f else INFINITE_COST for h, f in zip(heat, finite)]
        return tuple(map(TransitionCost, inputs, outputs, joint, works, heats))


def glp_bounds(scenario: Scenario) -> CostReport:
    """The report at the optimal weights ``w = P``, which attain every bound.

    Its bound fields are the minimal work, heat, bath entropy and mixing
    cost.  It is the pair's one report (see :func:`expected_cost`), so
    after pricing the optimum this costs a lookup.
    """
    return expected_cost(scenario, optimal_weights(scenario))


def _transition_columns(
    k: float,
    t_ref: float,
    support: tuple[np.ndarray, np.ndarray],
    weights: np.ndarray,
    output_weights: np.ndarray,
    table_in: StateArrays,
    table_out: StateArrays,
) -> TransitionColumns:
    """Work and heat of the transitions ``support``, computed once as arrays.

    ``support`` is an ``(inputs, outputs)`` pair of index arrays.  The
    columns' ``joint`` is ``None`` (:func:`_report` fills it in), and
    ``finite`` is false where the input carries zero weight (unbounded
    cost): ``work`` and ``heat`` mean nothing there.  Elementwise
    arithmetic in the order of the closed form, with :func:`math.log` for
    logarithms, gives each element bit for bit as scalar floats would.
    """
    rows, cols = support
    w_in = weights[rows]
    finite = w_in != 0.0
    ratio = np.divide(output_weights[cols], w_in, out=np.ones(w_in.size), where=finite)
    log_ratio = _logs(ratio)
    work = (table_out.free_energy[cols] - table_in.free_energy[rows]) + k * t_ref * log_ratio
    heat = t_ref * k * (table_in.entropy[rows] - table_out.entropy[cols] + log_ratio)
    return TransitionColumns(rows, cols, None, work, heat, finite)


def _priced_transitions(scenario: Scenario, weights: WeightVector, pairs=None) -> TransitionColumns:
    """:func:`_transition_columns` of ``scenario`` implemented with ``weights``.

    ``pairs`` is an ``(inputs, outputs)`` pair of index arrays; by
    default every transition with non-zero conditional probability, in
    row-major order.
    """
    return _transition_columns(
        scenario.units.k_B,
        scenario.reference_temperature,
        scenario.op.support if pairs is None else pairs,
        weights.weights,
        weights.output_weights,
        scenario.input_arrays,
        scenario.output_arrays,
    )


def transition_cost(scenario: Scenario, weights: WeightVector, input_index: int, output_index: int):
    """Work and heat along one realisable transition.

    Returns ``(work, heat)`` floats, or a sentinel pair when the input
    carries zero weight (compressing an occupied partition costs
    unbounded work).  Requesting a transition with zero conditional
    probability is an error: it never occurs.
    """
    i, j = input_index, output_index
    cond = scenario.op.matrix[i, j]
    if cond == 0.0:
        raise TransitionImpossibleError(
            f"transition {scenario.op.input_labels[i]!r} -> "
            f"{scenario.op.output_labels[j]!r} never occurs"
        )
    priced = _priced_transitions(scenario, weights, (np.array([i]), np.array([j])))
    if not priced.finite[0]:
        return INFINITE_COST, INFINITE_COST
    return float(priced.work[0]), float(priced.heat[0])


def expected_cost(scenario: Scenario, weights: WeightVector) -> CostReport:
    """Full cost report for a scenario implemented with the given weights.

    Both arguments are immutable, so the report is made once per pair and
    kept by ``weights`` for as long as both objects live: pricing the same
    scenario with the same vector again returns the same report.  Equal
    content in another object is priced afresh.
    """
    return _once_per_pair(scenario, weights, _price)


def _price(scenario: Scenario, weights: WeightVector) -> CostReport:
    return _report(
        _priced_transitions(scenario, weights),
        scenario.input_dist.probs,
        scenario.op.matrix,
        scenario.bound_terms,
    )


def _report(
    columns: TransitionColumns, p_in: np.ndarray, matrix: np.ndarray, bound_terms: tuple
) -> CostReport:
    """The report of input statistics ``p_in`` on priced ``columns``, whose ``joint`` is not read.

    Work and heat depend on the weights, the operation and the thermo
    tables but not on the input statistics, so the columns priced for one
    scenario serve another that differs only in its input distribution
    (and so in its ``bound_terms``).
    """
    rows, cols, _, work, heat, finite = columns
    joint = p_in[rows] * matrix[rows, cols]
    columns = _frozen(TransitionColumns(rows, cols, joint, work, heat, finite))
    if not finite.all() and (joint[~finite] > 0.0).any():
        expected_work = expected_heat = INFINITE_COST
    else:
        expected_work = math.fsum((joint * work)[finite].tolist())
        expected_heat = math.fsum((joint * heat)[finite].tolist())
    return CostReport(*bound_terms, columns, expected_work, expected_heat)


@dataclass(frozen=True, eq=False)
class OptimizationResult(_Frozen):
    weights: np.ndarray
    value: float
    iterations: int
    converged: bool


def _log_cost_parts(scenario: Scenario):
    p_in = scenario.input_dist.probs
    matrix = scenario.op.matrix
    joint = p_in[:, None] * matrix
    p_out = joint.sum(axis=0)
    return joint, p_in, p_out, matrix


def minimize_expected_work(
    scenario: Scenario,
    seed: int = DEFAULT_SEED,
    max_iterations: int = 100_000,
    restarts: int = 4,
) -> OptimizationResult:
    """Numerically minimise the expected work over the weight simplex.

    Multiplicative (mirror-descent) updates with backtracking, run from a
    uniform start plus seeded random restarts.  This is a verification
    oracle for :func:`optimal_weights`; it never looks at the analytic
    answer.
    """
    joint, p_in, p_out, matrix = _log_cost_parts(scenario)
    n = matrix.shape[0]
    base = _base_cost(scenario)
    k_t = scenario.kT
    rng = np.random.default_rng(seed)
    # The log-ratio terms live on the fixed support; the sum runs over the
    # whole matrix, zeros included, in the same order on every call.
    rows, cols = np.nonzero(joint > 0.0)
    logs = np.zeros_like(joint)
    live = p_out > 0.0
    coeff = np.zeros_like(p_out)  # stays zero off ``live``

    def objective(w):
        logs[rows, cols] = np.log((w @ matrix)[cols] / w[rows])
        return float((joint * logs).sum())

    def gradient(w):
        np.divide(p_out, w @ matrix, out=coeff, where=live)
        return matrix @ coeff - p_in / w

    starts = [np.full(n, 1.0 / n)]
    for _ in range(max(0, restarts)):
        starts.append(rng.dirichlet(np.ones(n)))

    best_w = None
    best_f = math.inf
    best_iters = 0
    best_converged = False
    for start in starts:
        w = np.maximum(start, 1e-12)
        w = w / w.sum()
        f = objective(w)
        step = 0.5
        stalled = 0
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            g = gradient(w)
            centred = g - float(w @ g)
            stationarity = float((np.abs(centred) * w).max())
            if stationarity < 1e-11:
                converged = True
                break
            trial_step = step
            for _ in range(60):
                exponent = np.minimum(np.maximum(-trial_step * centred, -50.0), 50.0)
                candidate = w * np.exp(exponent)
                candidate = candidate / candidate.sum()
                f_candidate = objective(candidate)
                if f_candidate <= f:
                    break
                trial_step *= 0.5
            if abs(f - f_candidate) < STALL_TOL:
                stalled += 1
            else:
                stalled = 0
            w, f = candidate, f_candidate
            step = min(trial_step * 1.5, 2.0)
            if stalled >= 25:
                converged = True
                break
        if f < best_f:
            best_f, best_w, best_iters, best_converged = f, w, iteration, converged
    assert best_w is not None
    return OptimizationResult(
        weights=_frozen(best_w),
        value=base + k_t * best_f,
        iterations=best_iters,
        converged=best_converged,
    )


def _base_cost(scenario: Scenario) -> float:
    p_in = scenario.input_dist.probs
    p_out = scenario.output_dist.probs
    return math.fsum((p_out * scenario.output_arrays.free_energy).tolist()) - math.fsum(
        (p_in * scenario.input_arrays.free_energy).tolist()
    )


def minimax_weights(
    scenario: Scenario,
    seed: int = DEFAULT_SEED,
    max_iterations: int = 20_000,
) -> OptimizationResult:
    """Minimise the worst-case (rather than mean) transition work.

    Subgradient mirror descent on ``max`` over realisable transitions,
    from three starts: uniform and two seeded Dirichlet draws.  The starts
    share nothing, so they descend together as the rows of one stack,
    each keeping the first iterate that reaches its own lowest worst case.
    The bests are then compared in start order with a strict ``<``,
    beginning from the worst case at the mean-optimal weights ``w = P``:
    on a tie the earlier start wins, and ``w = P`` wins over every start.
    So the returned worst case never exceeds the one at ``w = P``.  No
    further optimality is claimed.
    """
    joint, p_in, p_out, matrix = _log_cost_parts(scenario)
    k_t = scenario.kT
    rows, cols = np.nonzero(joint > 0.0)
    if rows.size == 0:
        raise CostError("no realisable transitions")
    const = scenario.output_arrays.free_energy[cols] - scenario.input_arrays.free_energy[rows]

    def worst(W):
        """Every row's transition values, the index of its worst one, and its output weights."""
        # Stacked ``@`` rounds each row as ``w @ matrix`` does; einsum and 2-D ``@`` may not.
        W_out = (W[:, None, :] @ matrix)[:, 0]
        ratios = W_out[:, cols] / W[:, rows]
        values = const + k_t * _logs(ratios.ravel()).reshape(ratios.shape)
        return values, values.argmax(axis=1), W_out

    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    uniform = np.full(n, 1.0 / n)
    W = np.stack([uniform, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))])
    stack = np.arange(len(W))
    best_W = W.copy()
    best_values = [math.inf] * len(W)
    for iteration in range(1, max_iterations + 1):
        values, idx, W_out = worst(W)
        for r, value in enumerate(values[stack, idx].tolist()):
            if value < best_values[r]:
                best_values[r] = value
                best_W[r] = W[r]
        i_star, j_star = rows[idx], cols[idx]
        g = k_t * (matrix.T[j_star] / W_out[stack, j_star][:, None])
        g[stack, i_star] -= k_t / W[stack, i_star]
        step = 0.2 / math.sqrt(iteration)
        mean_g = (W[:, None, :] @ g[:, :, None])[:, 0]  # each row's ``w @ g``, as above
        W = W * np.exp(np.minimum(np.maximum(-step * (g - mean_g), -50.0), 50.0))
        totals = W.sum(axis=1)
        reset = [not 0.0 < total < math.inf for total in totals.tolist()]
        if any(reset):  # such a start begins again from uniform weights
            W[reset], totals[reset] = uniform, 1.0
        W = np.maximum(W / totals[:, None], 1e-15)
        W /= W.sum(axis=1)[:, None]
        if any(reset):
            W[reset] = uniform
    values, idx, _ = worst(p_in[None])
    best_w, best_value = p_in, float(values[0, idx[0]])
    for value, w in zip(best_values, best_W):
        if value < best_value:
            best_value, best_w = value, w
    return OptimizationResult(
        weights=_frozen(best_w.copy()), value=best_value, iterations=max_iterations, converged=True
    )
