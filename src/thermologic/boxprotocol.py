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

Closed-form high-temperature well properties are the primary path; the
truncated exact partition sums remain available in
:func:`squarewell_props` as a validity oracle, and branches whose wells
leave the high-temperature regime are flagged on the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import WeightVector, expected_cost, is_infinite
from .thermo import NATURAL_UNITS, Scenario, UnitSystem

HIGH_TEMPERATURE_MARGIN = 10.0
SUM_TRUNCATION = 1e-16
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
    "Partition",
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
    """Exact (truncated-sum) and high-temperature equilibrium properties."""

    energy: float
    entropy: float
    energy_high_t: float
    entropy_high_t: float
    high_temperature_ok: bool


def squarewell_props(
    width: float, temperature: float, units: UnitSystem = NATURAL_UNITS
) -> WellProperties:
    """Equilibrium mean energy and entropy of a square well.

    The exact values come from the level sums, truncated once a term
    drops below ``SUM_TRUNCATION`` of the running totals; the
    high-temperature forms are ``k T / 2`` and ``k ln(width / d0)`` with
    ``d0`` the zero-entropy width.  The validity flag marks whether the
    high-temperature regime applies at all.
    """
    well = SquareWell(width, temperature, units)
    k = units.k_B
    e1 = well.ground_energy
    beta_e1 = e1 / (k * temperature)
    z_total = 0.0
    e_total = 0.0  # sum of E_n * exp(-E_n / kT)
    n = 0
    block = 1024
    while True:
        levels = np.arange(n + 1, n + block + 1, dtype=float)
        exponents = beta_e1 * levels**2
        weights = np.exp(-np.clip(exponents, None, 745.0))
        z_block = float(weights.sum())
        e_block = float((e1 * levels**2 * weights).sum())
        z_total += z_block
        e_total += e_block
        n += block
        last = float(weights[-1])
        if z_total > 0.0 and last < SUM_TRUNCATION * z_total and exponents[-1] > 1.0:
            break
        if n > 50_000_000:  # pathological parameters; sums have long converged otherwise
            break
    mean_energy = e_total / z_total
    entropy = mean_energy / (k * temperature) + math.log(z_total)
    return WellProperties(
        energy=mean_energy,
        entropy=entropy,
        energy_high_t=0.5 * k * temperature,
        entropy_high_t=entropy_for_width(width, temperature, units),
        high_temperature_ok=well.high_temperature_ok,
    )


@dataclass(frozen=True)
class Partition:
    """One box segment: which branch occupies it and how wide it is."""

    input_index: int | None
    output_index: int | None
    width: float


@dataclass(frozen=True)
class BoxLayout:
    """Ordered partitions of the box at one stage; removed partitions absent."""

    partitions: tuple[Partition, ...]

    @property
    def total_width(self) -> float:
        return math.fsum(p.width for p in self.partitions)


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
    warnings: set[str] = set()

    def check_regime(step: int, width: float, temperature: float, branch: str):
        if width > 0.0 and not _high_temperature_ok(width, temperature, units):
            warnings.add(
                f"step {step}: high-temperature approximation unreliable for {branch} "
                f"(width {width:.6g}, T {temperature:.6g})"
            )

    n_in = scenario.op.n_inputs
    n_out = scenario.op.n_outputs
    d1 = np.zeros(n_in)
    d2 = np.zeros(n_in)
    for i in range(n_in):
        st = scenario.input_thermo[i]
        d1[i] = width_for_entropy(st.entropy, st.temperature, units)
        d2[i] = width_for_entropy(st.entropy, t_ref, units)
        label = f"input {scenario.op.input_labels[i]}"
        check_regime(1, d1[i], st.temperature, label)
        check_regime(2, d2[i], t_ref, label)
        rows.append(
            LedgerRow(
                step=1,
                input_index=i,
                output_index=None,
                width=d1[i],
                energy=0.5 * k * st.temperature,
                entropy=st.entropy,
                temperature=st.temperature,
                work=0.5 * k * st.temperature - st.energy,
                heat=0.0,
            )
        )
        rows.append(
            LedgerRow(
                step=2,
                input_index=i,
                output_index=None,
                width=d2[i],
                energy=0.5 * k * t_ref,
                entropy=st.entropy,
                temperature=t_ref,
                work=0.5 * k * (t_ref - st.temperature),
                heat=0.0,
            )
        )

    total_width = math.fsum(d2.tolist())
    d3 = w_in * total_width
    for i in range(n_in):
        if w_in[i] == 0.0:
            continue  # never occupied; its partition is compressed away
        iso = k * t_ref * math.log(d2[i] / d3[i])
        check_regime(3, d3[i], t_ref, f"input {scenario.op.input_labels[i]}")
        rows.append(
            LedgerRow(
                step=3,
                input_index=i,
                output_index=None,
                width=d3[i],
                energy=0.5 * k * t_ref,
                entropy=entropy_for_width(d3[i], t_ref, units),
                temperature=t_ref,
                work=iso,
                heat=iso,
            )
        )

    for i in range(n_in):
        if w_in[i] == 0.0:
            continue
        for j in range(n_out):
            if matrix[i, j] == 0.0:
                continue
            width = matrix[i, j] * w_in[i] * total_width
            entropy = entropy_for_width(width, t_ref, units)
            check_regime(
                4,
                width,
                t_ref,
                f"branch {scenario.op.input_labels[i]}->{scenario.op.output_labels[j]}",
            )
            for step in (4, 5):
                rows.append(
                    LedgerRow(
                        step=step,
                        input_index=i,
                        output_index=j,
                        width=width,
                        energy=0.5 * k * t_ref,
                        entropy=entropy,
                        temperature=t_ref,
                        work=0.0,
                        heat=0.0,
                    )
                )

    d6 = w_out * total_width
    d7 = np.zeros(n_out)
    d8 = np.zeros(n_out)
    for j in range(n_out):
        if w_out[j] == 0.0:
            continue  # unreachable output; no partition exists for it
        st = scenario.output_thermo[j]
        d7[j] = width_for_entropy(st.entropy, t_ref, units)
        d8[j] = d7[j] * math.sqrt(t_ref / st.temperature)
        label = f"output {scenario.op.output_labels[j]}"
        check_regime(6, d6[j], t_ref, label)
        check_regime(7, d7[j], t_ref, label)
        check_regime(8, d8[j], st.temperature, label)
        rows.append(
            LedgerRow(
                step=6,
                input_index=None,
                output_index=j,
                width=d6[j],
                energy=0.5 * k * t_ref,
                entropy=entropy_for_width(d6[j], t_ref, units),
                temperature=t_ref,
                work=0.0,
                heat=0.0,
            )
        )
        iso = k * t_ref * math.log(d6[j] / d7[j])
        rows.append(
            LedgerRow(
                step=7,
                input_index=None,
                output_index=j,
                width=d7[j],
                energy=0.5 * k * t_ref,
                entropy=st.entropy,
                temperature=t_ref,
                work=iso,
                heat=iso,
            )
        )
        rows.append(
            LedgerRow(
                step=8,
                input_index=None,
                output_index=j,
                width=d8[j],
                energy=0.5 * k * st.temperature,
                entropy=st.entropy,
                temperature=st.temperature,
                work=0.5 * k * (st.temperature - t_ref),
                heat=0.0,
            )
        )
        rows.append(
            LedgerRow(
                step=9,
                input_index=None,
                output_index=j,
                width=d8[j],
                energy=st.energy,
                entropy=st.entropy,
                temperature=st.temperature,
                work=st.energy - 0.5 * k * st.temperature,
                heat=0.0,
            )
        )

    return ProtocolLedger(
        rows=tuple(rows), layouts=_layouts(rows), warnings=tuple(sorted(warnings))
    )


def _layouts(rows: list[LedgerRow]) -> tuple[tuple[int, BoxLayout], ...]:
    """Box layout after each of stages 1-8, read off that stage's rows.

    Stage 5 brings equal outputs together, so it is ordered by (output, input).
    """
    partitions: dict[int, list[Partition]] = {step: [] for step in range(1, 9)}
    for row in rows:
        if row.step in partitions:
            partitions[row.step].append(Partition(row.input_index, row.output_index, row.width))
    partitions[5].sort(key=lambda p: (p.output_index, p.input_index))
    return tuple((step, BoxLayout(tuple(parts))) for step, parts in partitions.items())


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
    closed_forms = {(tr.input_index, tr.output_index): tr for tr in report.transitions}
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
        closed = closed_forms.get((i, j))
        if closed is None:
            messages.append(f"trajectory ({i}, {j}) is not a realisable transition")
            continue
        if is_infinite(closed.work):
            messages.append(f"trajectory ({i}, {j}) has unbounded closed-form cost")
            continue
        work_residuals.append(abs(work - closed.work))
        heat_residuals.append(abs(heat - closed.heat))
    # np.max keeps a NaN residual, which the builtin max would drop.
    max_work = float(np.max(work_residuals))
    max_heat = float(np.max(heat_residuals))
    if not (max_work <= RECONCILE_TOL and max_heat <= RECONCILE_TOL):
        messages.append(
            f"trajectory totals mismatch closed forms: work {max_work:.3e}, heat {max_heat:.3e}"
        )

    if is_infinite(report.expected_work):
        expected_work_mismatch = math.inf
        expected_heat_mismatch = math.inf
        messages.append("expected cost is unbounded; ledger cannot reconcile")
    else:
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
