"""Staged piston-and-partition implementation of a stochastic logical map.

The physical picture is a single particle confined to one of several
square-well partitions of a box; which partition holds the particle
encodes the logical state.  An arbitrary operation is implemented in nine
quasi-static stages, each evaluated in the ideal (slow, frictionless,
ideal-bath) limit:

1. deform each input well into a square well at its own temperature,
2. thermally isolate and resize adiabatically to the reference temperature,
3. in contact with the reference bath, move the inter-partition barriers
   so input state ``i`` occupies the fraction ``w[i]`` of the box,
4. insert sub-barriers splitting partition ``i`` in proportion to the
   conditional probabilities of its outputs (the indeterministic stage),
5. rearrange sub-partitions so that equal outputs are adjacent (costless
   relabel),
6. remove the internal barriers of each output partition (the
   irreversible stage, free but entropy-raising),
7. isothermally resize each output partition to the width matching its
   target entropy,
8. isolate and resize adiabatically to the output temperature,
9. deform each square well into the final output potential.

Per-branch work and heat follow two rules: an isothermal width change
``d0 -> d1`` at temperature ``T`` costs work ``k T ln(d0 / d1)`` and
deposits the same amount of heat in the bath, while an adiabatic change
trades work for internal energy with no heat at all.  Barrier insertion,
removal and rearrangement cost nothing on average.  Summed along a
trajectory the stages reproduce the closed-form transition costs of
:mod:`thermologic.costs`; :func:`reconcile` checks exactly that.

Each well is treated as a square well in the high-temperature regime, so the
energy a row records at steps 1-8 is ``k T / 2`` at that row's
temperature; step 9 records the output state's own energy.  One pass
over the finished rows checks that regime at each row's width and
temperature for steps 1-4 and 6-8, and the ledger warns for each well
outside it.  Steps 5 and 9 hold the wells of steps 4 and 8 unchanged, so
they are not checked again.  :func:`squarewell_props` gives the exact
level sums, with no truncation at any width, as a validity oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import WeightVector, expected_cost
from .thermo import NATURAL_UNITS, Scenario, UnitSystem

HIGH_TEMPERATURE_MARGIN = 10.0
DUAL_TERMS = 5  # b <= 1: the first term left out, e^{-36 pi^2 / b}, is below e^{-355}
DIRECT_TERMS = 40  # b > 1: the first term left out, e^{-1680 b}, is below e^{-1680}
RECONCILE_TOL = 1e-9  # reconcile: trajectory and expected totals against the closed forms
RECONCILE_STEP_TOL = 1e-12  # reconcile: each row against its recomputation

__all__ = [
    "ProtocolAbortError",
    "SquareWell",
    "WellProperties",
    "squarewell_props",
    "zero_entropy_width",
    "width_for_entropy",
    "entropy_for_width",
    "BoxLayout",
    "LedgerRow",
    "ProtocolLedger",
    "run_protocol",
    "ReconcileReport",
    "reconcile",
]


class ProtocolAbortError(RuntimeError):
    """The requested layout could trap the particle in a vanishing partition."""


def zero_entropy_width(temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Width at which a square well in thermal equilibrium holds zero entropy."""
    return math.sqrt(
        math.pi * units.hbar**2 / (2.0 * math.e * units.mass * units.k_B * temperature)
    )


def width_for_entropy(entropy: float, temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Width whose equilibrium entropy (units of k_B) is ``entropy``."""
    return zero_entropy_width(temperature, units) * math.exp(entropy)


def entropy_for_width(width: float, temperature: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Equilibrium entropy (units of k_B) of a square well of given width."""
    return math.log(width / zero_entropy_width(temperature, units))


def _high_temperature_ok(width: float, temperature: float, units: UnitSystem) -> bool:
    threshold = (
        HIGH_TEMPERATURE_MARGIN
        * math.pi
        * units.hbar**2
        / (2.0 * math.e * units.mass * width**2)
    )
    return units.k_B * temperature >= threshold


@dataclass(frozen=True)
class SquareWell:
    """Infinite square well holding one particle in thermal equilibrium."""

    width: float
    temperature: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        if self.width <= 0.0 or self.temperature <= 0.0:
            raise ValueError("width and temperature must be positive")

    @property
    def ground_energy(self) -> float:
        return self.units.hbar**2 * math.pi**2 / (8.0 * self.units.mass * self.width**2)

    @property
    def high_temperature_ok(self) -> bool:
        return _high_temperature_ok(self.width, self.temperature, self.units)


@dataclass(frozen=True)
class WellProperties:
    """Exact and high-temperature equilibrium properties."""

    energy: float
    entropy: float
    energy_high_t: float
    entropy_high_t: float
    high_temperature_ok: bool


def _level_sums(b: float) -> tuple[float, float]:
    """Mean energy (units of kT) and entropy (units of k) of levels ``b n^2``, n >= 1.

    Small ``b`` uses Jacobi's imaginary transformation of theta_3 (Poisson
    summation; DLMF chapter 20): with ``q_k = e^{-pi^2 k^2 / b}`` and
    ``x = sqrt(b / pi)``, ``Z = (theta / x - 1) / 2`` where
    ``theta = 1 + 2 sum_k q_k``, and the mean energy ``-b d(ln Z)/db`` is
    ``(theta - 4 pi^2 / b sum_k k^2 q_k) / (2 (theta - x))``.  Large ``b``
    sums the levels directly, relative to the ground state, so that no
    weight underflows and the entropy of a nearly frozen well is not a
    difference of two close numbers.  Both series are exact to rounding.
    """
    if b <= 1.0:
        k = np.arange(1, DUAL_TERMS + 1, dtype=float)
        q = np.exp(-math.pi**2 * k**2 / b)
        x = math.sqrt(b / math.pi)
        theta = 1.0 + 2.0 * math.fsum(q.tolist())
        curvature = theta - 4.0 * math.pi**2 * math.fsum((k**2 * q).tolist()) / b
        energy = curvature / (2.0 * (theta - x))
        return energy, energy + math.log(0.5 * (theta / x - 1.0))
    excess = np.arange(1, DIRECT_TERMS + 1, dtype=float) ** 2 - 1.0  # n^2 - 1
    shifted = np.exp(-b * excess)
    z_shifted = math.fsum(shifted.tolist())  # Z e^{b}
    excess_energy = b * math.fsum((excess * shifted).tolist()) / z_shifted
    return b + excess_energy, excess_energy + math.log(z_shifted)


def squarewell_props(
    width: float, temperature: float, units: UnitSystem = NATURAL_UNITS
) -> WellProperties:
    """Equilibrium mean energy and entropy of a square well.

    The exact values sum the levels ``E_n = n^2 E_1`` in constant time at
    every width (:func:`_level_sums`); nothing is truncated.  The
    high-temperature forms are ``k T / 2`` and ``k ln(width / d0)`` with
    ``d0`` the zero-entropy width.  The validity flag marks whether the
    high-temperature regime applies at all.
    """
    well = SquareWell(width, temperature, units)
    k = units.k_B
    energy_kt, entropy = _level_sums(well.ground_energy / (k * temperature))
    return WellProperties(
        energy=k * temperature * energy_kt,
        entropy=entropy,
        energy_high_t=0.5 * k * temperature,
        entropy_high_t=entropy_for_width(width, temperature, units),
        high_temperature_ok=well.high_temperature_ok,
    )


@dataclass(frozen=True)
class LedgerRow:
    """State after one stage, conditional on the branch, plus that stage's cost."""

    step: int
    input_index: int | None
    output_index: int | None
    width: float
    energy: float
    entropy: float
    temperature: float
    work: float
    heat: float


@dataclass(frozen=True)
class BoxLayout:
    """The box at one stage: that stage's ledger rows, in box order.

    Each row is one partition, read through its ``input_index``,
    ``output_index`` and ``width``; removed partitions are absent.
    """

    partitions: tuple[LedgerRow, ...]

    @property
    def total_width(self) -> float:
        return math.fsum(p.width for p in self.partitions)


@dataclass(frozen=True, eq=False)
class ProtocolLedger:
    """Rows of one run, grouped into trajectory legs once, on first use.

    Trajectory ``i -> j`` joins input ``i`` (steps 1-3), branch ``(i, j)``
    (steps 4-5) and output ``j`` (steps 6-9, no input index).
    """

    rows: tuple[LedgerRow, ...]
    layouts: tuple[tuple[int, BoxLayout], ...]
    warnings: tuple[str, ...]

    @cached_property
    def _legs(self) -> tuple[dict, dict, dict]:
        inputs, branches, outputs = {}, {}, {}
        for row in self.rows:
            if row.step <= 3:
                inputs.setdefault(row.input_index, []).append(row)
            elif row.step <= 5:
                branches.setdefault((row.input_index, row.output_index), []).append(row)
            elif row.input_index is None:
                outputs.setdefault(row.output_index, []).append(row)
        return inputs, branches, outputs

    def rows_for(self, step: int) -> tuple[LedgerRow, ...]:
        return tuple(r for r in self.rows if r.step == step)

    def layout(self, step: int) -> BoxLayout:
        return dict(self.layouts)[step]

    def branch_rows(self, input_index: int, output_index: int) -> tuple[LedgerRow, ...]:
        inputs, branches, outputs = self._legs
        return (
            *inputs.get(input_index, ()),
            *branches.get((input_index, output_index), ()),
            *outputs.get(output_index, ()),
        )

    def branch_total(self, input_index: int, output_index: int) -> tuple[float, float]:
        """Total (work, heat) along the trajectory input -> output."""
        rows = self.branch_rows(input_index, output_index)
        if len(rows) != 9:
            raise KeyError(
                f"trajectory {input_index} -> {output_index} is not realised in this ledger"
            )
        return (
            math.fsum(r.work for r in rows),
            math.fsum(r.heat for r in rows),
        )

    def trajectory_totals(self) -> dict[tuple[int, int], tuple[float, float]]:
        return {pair: self.branch_total(*pair) for pair in sorted(self._legs[1])}

    def expected_totals(self, scenario: Scenario) -> tuple[float, float]:
        """Expectation of the trajectory totals over the joint distribution."""
        p_in = scenario.input_dist.probs
        matrix = scenario.op.matrix
        work_terms = []
        heat_terms = []
        for (i, j), (work, heat) in self.trajectory_totals().items():
            joint = p_in[i] * matrix[i, j]
            work_terms.append(joint * work)
            heat_terms.append(joint * heat)
        return math.fsum(work_terms), math.fsum(heat_terms)


def run_protocol(scenario: Scenario, weights: WeightVector) -> ProtocolLedger:
    """Drive the nine-stage implementation and record the full ledger."""
    w_in = weights.weights
    w_out = weights.output_weights
    p_in = scenario.input_dist.probs
    matrix = scenario.op.matrix
    units = scenario.units
    k = units.k_B
    t_ref = scenario.reference_temperature

    blocked = np.flatnonzero((w_in == 0.0) & (p_in > 0.0))
    if blocked.size:
        labels = ", ".join(scenario.op.input_labels[i] for i in blocked)
        raise ProtocolAbortError(
            f"cannot compress inputs with zero weight that may be occupied: {labels}"
        )

    rows: list[LedgerRow] = []

    def add(step, i, j, width, temperature, entropy, work=0.0, heat=0.0, energy=None):
        if energy is None:  # a square well in the high-temperature regime
            energy = 0.5 * k * temperature
        rows.append(LedgerRow(step, i, j, width, energy, entropy, temperature, work, heat))

    d2 = []
    for i, st in enumerate(scenario.input_thermo):
        d1 = width_for_entropy(st.entropy, st.temperature, units)
        d2.append(width_for_entropy(st.entropy, t_ref, units))
        add(1, i, None, d1, st.temperature, st.entropy, work=0.5 * k * st.temperature - st.energy)
        add(2, i, None, d2[i], t_ref, st.entropy, work=0.5 * k * (t_ref - st.temperature))

    total_width = math.fsum(d2)
    live = np.flatnonzero(w_in).tolist()  # a zero-weight input is compressed away
    for i in live:
        d3 = w_in[i] * total_width
        iso = k * t_ref * math.log(d2[i] / d3)
        add(3, i, None, d3, t_ref, entropy_for_width(d3, t_ref, units), iso, iso)

    for i in live:
        for j in np.flatnonzero(matrix[i]).tolist():
            width = matrix[i, j] * w_in[i] * total_width
            entropy = entropy_for_width(width, t_ref, units)
            add(4, i, j, width, t_ref, entropy)
            add(5, i, j, width, t_ref, entropy)

    for j in np.flatnonzero(w_out).tolist():  # an unreachable output has no partition
        st = scenario.output_thermo[j]
        d6 = w_out[j] * total_width
        d7 = width_for_entropy(st.entropy, t_ref, units)
        d8 = d7 * math.sqrt(t_ref / st.temperature)
        iso = k * t_ref * math.log(d6 / d7)
        add(6, None, j, d6, t_ref, entropy_for_width(d6, t_ref, units))
        add(7, None, j, d7, t_ref, st.entropy, iso, iso)
        add(8, None, j, d8, st.temperature, st.entropy, work=0.5 * k * (st.temperature - t_ref))
        add(9, None, j, d8, st.temperature, st.entropy,
            work=st.energy - 0.5 * k * st.temperature, energy=st.energy)

    return ProtocolLedger(tuple(rows), _layouts(rows), _regime_warnings(rows, scenario))


def _regime_warnings(rows: list[LedgerRow], scenario: Scenario) -> tuple[str, ...]:
    """One warning per well outside the high-temperature regime, sorted.

    Steps 5 and 9 hold the wells of steps 4 and 8 unchanged, so they are
    not checked again.
    """
    inputs, outputs = scenario.op.input_labels, scenario.op.output_labels
    warnings = set()
    for row in rows:
        if row.step in (5, 9) or not row.width > 0.0:
            continue
        if _high_temperature_ok(row.width, row.temperature, scenario.units):
            continue
        if row.output_index is None:
            branch = f"input {inputs[row.input_index]}"
        elif row.input_index is None:
            branch = f"output {outputs[row.output_index]}"
        else:
            branch = f"branch {inputs[row.input_index]}->{outputs[row.output_index]}"
        warnings.add(
            f"step {row.step}: high-temperature approximation unreliable for {branch} "
            f"(width {row.width:.6g}, T {row.temperature:.6g})"
        )
    return tuple(sorted(warnings))


def _layouts(rows: list[LedgerRow]) -> tuple[tuple[int, BoxLayout], ...]:
    """Box layout after each of stages 1-8: that stage's own rows.

    Stage 5 brings equal outputs together, so it is ordered by (output, input).
    """
    stages: dict[int, list[LedgerRow]] = {step: [] for step in range(1, 9)}
    for row in rows:
        if row.step in stages:
            stages[row.step].append(row)
    stages[5].sort(key=lambda r: (r.output_index, r.input_index))
    return tuple((step, BoxLayout(tuple(stage))) for step, stage in stages.items())


@dataclass(frozen=True)
class ReconcileReport:
    ok: bool
    max_work_mismatch: float
    max_heat_mismatch: float
    expected_work_mismatch: float
    expected_heat_mismatch: float
    first_divergent_step: tuple[int, int | None, int | None] | None
    messages: tuple[str, ...]


def reconcile(
    ledger: ProtocolLedger, scenario: Scenario, weights: WeightVector
) -> ReconcileReport:
    """Check a ledger against an independent recomputation and the closed forms.

    A fresh ledger is rebuilt from the scenario and weights and compared
    row by row (catching injected or corrupted stages), then trajectory
    totals are compared against the expected-cost report's per-transition
    closed forms and the expectation against its expected work and heat.

    Weights that put zero on an input the scenario may occupy raise
    :class:`ProtocolAbortError` from the recomputation, so the expected
    cost compared here is always finite.  A transition can still be
    unbounded in the closed forms when the ledger was built with other
    weights than ``weights`` and those zero an unoccupied input; that
    trajectory is reported, not compared.
    """
    messages: list[str] = []
    first_divergence = None

    fresh = run_protocol(scenario, weights)
    if len(fresh.rows) != len(ledger.rows):
        messages.append(
            f"row count {len(ledger.rows)} differs from recomputation {len(fresh.rows)}"
        )
    else:
        for got, want in zip(ledger.rows, fresh.rows):
            key = (want.step, want.input_index, want.output_index)
            if (got.step, got.input_index, got.output_index) != key:
                messages.append(f"row ordering diverges at step {want.step}")
                first_divergence = key
                break
            if not (  # NaN fails too
                abs(got.work - want.work) <= RECONCILE_STEP_TOL
                and abs(got.heat - want.heat) <= RECONCILE_STEP_TOL
                and abs(got.width - want.width) <= RECONCILE_STEP_TOL
            ):
                messages.append(
                    f"step {key[0]} branch ({key[1]}, {key[2]}) diverges from recomputation"
                )
                first_divergence = key
                break

    report = expected_cost(scenario, weights)
    inputs, outputs, _, closed_work, closed_heat, finite = (c.tolist() for c in report.columns)
    position = {pair: n for n, pair in enumerate(zip(inputs, outputs))}
    try:
        totals = ledger.trajectory_totals()
        got_work, got_heat = ledger.expected_totals(scenario)
    except KeyError as exc:  # a trajectory misses or repeats a row
        messages.append(exc.args[0])
        return ReconcileReport(
            False, math.inf, math.inf, math.inf, math.inf, first_divergence, tuple(messages)
        )
    work_residuals = [0.0]
    heat_residuals = [0.0]
    for (i, j), (work, heat) in totals.items():
        n = position.get((i, j))
        if n is None:
            messages.append(f"trajectory ({i}, {j}) is not a realisable transition")
            continue
        if not finite[n]:
            messages.append(f"trajectory ({i}, {j}) has unbounded closed-form cost")
            continue
        work_residuals.append(abs(work - closed_work[n]))
        heat_residuals.append(abs(heat - closed_heat[n]))
    # np.max keeps a NaN residual, which the builtin max would drop.
    max_work = float(np.max(work_residuals))
    max_heat = float(np.max(heat_residuals))
    if not (max_work <= RECONCILE_TOL and max_heat <= RECONCILE_TOL):
        messages.append(
            f"trajectory totals mismatch closed forms: work {max_work:.3e}, heat {max_heat:.3e}"
        )

    expected_work_mismatch = abs(got_work - report.expected_work)
    expected_heat_mismatch = abs(got_heat - report.expected_heat)
    if not (  # NaN fails too
        expected_work_mismatch <= RECONCILE_TOL and expected_heat_mismatch <= RECONCILE_TOL
    ):
        messages.append("expected totals mismatch the cost report")

    return ReconcileReport(
        ok=not messages,
        max_work_mismatch=max_work,
        max_heat_mismatch=max_heat,
        expected_work_mismatch=expected_work_mismatch,
        expected_heat_mismatch=expected_heat_mismatch,
        first_divergent_step=first_divergence,
        messages=tuple(messages),
    )
